#!/usr/bin/env bash
# Offline CI for the delinquent-loads reproduction.
#
#   ./ci.sh          # full gate: fmt, build, test, benchmark smoke and perf gate
#
# Everything here must pass with no network access.

set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check
cargo fmt --manifest-path perfbench/Cargo.toml -- --check

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test -q =="
cargo test -q --workspace

echo "== cargo clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== repro manifest smoke =="
./target/release/repro --smoke --jobs 2 --manifest /tmp/ci_manifest.json > /dev/null
test -s /tmp/ci_manifest.json

# The manifest is the observability contract: fail CI if a mandatory
# section or key disappears.
python3 - <<'EOF'
import json
doc = json.load(open("/tmp/ci_manifest.json"))
assert doc["schema"] == "dl-obs/1", f"unexpected schema {doc.get('schema')}"
for key in ("stages", "memo", "workers", "sim", "miss_classes", "memory", "reuse", "profile", "analysis"):
    assert key in doc, f"manifest missing {key}"
memory = doc["memory"]
for key in ("non_default_configs", "l2_hits", "l2_misses", "prefetch_fills", "prefetch_useful"):
    assert key in memory, f"manifest memory section missing {key}"
assert doc["stages"], "manifest has no stage timings"
assert all("secs" in s for s in doc["stages"]), "stage entries missing wall times"
assert "hit_rate" in doc["memo"], "manifest missing memo hit rate"
for key in ("hits", "misses", "waits"):
    assert key in doc["memo"], f"manifest memo missing {key}"
assert doc["workers"], "manifest has no per-worker stats"
assert doc["sim"]["insts_per_sec"] > 0, "manifest missing sim throughput"
assert doc["sim"]["engine"] in ("step", "block"), "manifest missing sim engine"
bc = doc["sim"]["block_cache"]
for key in ("blocks_decoded", "insts_decoded", "mean_block_len",
            "dispatches", "dispatch_hits", "insts_retired"):
    assert key in bc, f"manifest block_cache missing {key}"
assert doc["miss_classes"]["total"] > 0, "manifest classified no misses"
# The smoke run's three-Cs split, pinned: a classifier that drifted at
# the capacity boundary would trade capacity for conflict misses and
# keep the total.
mc = doc["miss_classes"]
split = (mc["classified_runs"], mc["compulsory"], mc["capacity"], mc["conflict"])
assert split == (18, 41876, 244369, 12156), f"three-Cs split moved: {mc}"
assert doc["reuse"]["loads"] > 0, "manifest reuse section saw no loads"
profile = doc["profile"]
for key in ("runs", "loads", "modeled", "abstained", "interprocedural", "flagged"):
    assert key in profile, f"manifest profile section missing {key}"
assert profile["loads"] > 0, "manifest profile section saw no loads"
assert profile["modeled"] + profile["abstained"] == profile["loads"], \
    "profile modeled/abstained split does not cover every load"
lat = doc["sim"]["latency"]
for key in ("p50_secs", "p90_secs", "p99_secs"):
    assert key in lat, f"manifest sim.latency missing {key}"
assert lat["p50_secs"] <= lat["p99_secs"], "latency percentiles not monotone"
analysis = doc["analysis"]
for key in ("contexts", "hits", "misses", "hit_rate", "total_compute_secs", "passes"):
    assert key in analysis, f"manifest analysis section missing {key}"
assert analysis["contexts"] > 0, "manifest recorded no analysis contexts"
assert analysis["hits"] > 0, "analysis ctx cache recorded no sharing"
assert len(analysis["passes"]) == 9, "manifest pass list incomplete"
per_program = {p["pass"]: p["misses"] for p in analysis["passes"]}
# Each program is analyzed exactly once however many configurations
# share it: program-level passes compute once per context, never more.
assert per_program["patterns"] == analysis["contexts"], "a program was re-analyzed"
print("RUN_MANIFEST OK: schema", doc["schema"])
EOF

echo "== trace export smoke =="
./target/release/repro --smoke --jobs 2 --trace-out /tmp/ci_trace.json table3 > /dev/null
test -s /tmp/ci_trace.json

# The trace is the timeline contract: valid Chrome trace-event JSON
# with complete ("X") events carrying the required keys, and spans for
# each pipeline layer (compile, per-pass analysis, simulation).
python3 - <<'EOF'
import json
doc = json.load(open("/tmp/ci_trace.json"))
events = doc["traceEvents"]
assert events, "trace has no events"
for e in events:
    for key in ("name", "cat", "ph", "ts", "dur", "pid", "tid"):
        assert key in e, f"trace event missing {key}: {e}"
    assert e["ph"] == "X", f"unexpected event phase {e['ph']}"
cats = {e["cat"] for e in events}
for cat in ("compile", "analysis", "sim", "warm", "tables"):
    assert cat in cats, f"trace missing {cat} spans (saw {sorted(cats)})"
sims = [e for e in events if e["cat"] == "sim"]
assert all("/" in e["name"] for e in sims), "sim spans missing config labels"
print(f"trace OK: {len(events)} events, categories {sorted(cats)}")
EOF

echo "== dlc observatory smoke =="
# A tiny standalone program: repeated array scans produce a clean
# per-epoch miss phase for the observatory to window.
cat > /tmp/ci_top.mc <<'EOF'
int main() {
    int n; int i; int j; int s;
    int* a;
    n = read();
    if (n < 64) { n = 64; }
    a = malloc(n * sizeof(int));
    for (i = 0; i < n; i = i + 1) { a[i] = i; }
    s = 0;
    for (j = 0; j < 8; j = j + 1) {
        for (i = 0; i < n; i = i + 1) { s = s + a[i]; }
    }
    print(s);
    return 0;
}
EOF
./target/release/dlc top /tmp/ci_top.mc --input 20000 --epoch 8192 --limit 5 \
  --trace-out /tmp/ci_dlc_trace.json > /tmp/ci_top.out
grep -q "epoch = 8192 loads" /tmp/ci_top.out
grep -q "heur okn bdh reuse" /tmp/ci_top.out
test -s /tmp/ci_dlc_trace.json
# `dlc run` of the scan kernel under the given flags, with stdout and
# stderr saved as /tmp/ci_run_<name>.out and .err.
dlc_run() {
  local name=$1
  shift
  ./target/release/dlc run /tmp/ci_top.mc --input 20000 "$@" \
    > "/tmp/ci_run_$name.out" 2> "/tmp/ci_run_$name.err"
}
# What a run measured, from its stderr: the summary up to `exit N`
# (instructions, loads, load misses, exit code; the host-dependent
# `M insts/s` is dropped) and the `[memory ...]` line, if any.
run_report() {
  sed -n -e 's/^\(\[[0-9]* instructions, .*, exit -\{0,1\}[0-9]*\), [0-9]*M insts\/s\]$/\1]/p' \
    -e '/^\[memory /p' "$1"
}
# Two runs agree when they print the same values (stdout) and report
# the same measurement.
same_run() {
  cmp "/tmp/ci_run_$1.out" "/tmp/ci_run_$2.out"
  run_report "/tmp/ci_run_$1.err" | grep -q "load misses, exit 0]"
  cmp <(run_report "/tmp/ci_run_$1.err") <(run_report "/tmp/ci_run_$2.err")
}
# A plain block-engine run, whose one plain model replays the stream
# the MRU filter strips, must agree with the same run under the step
# engine and with the run under `--profile`, whose classifying model
# replays every access.
dlc_run plain
dlc_run step --engine step
dlc_run profile --profile
same_run plain step
same_run plain profile
echo "dlc top OK"

echo "== dlc memory-system smoke =="
# The memory flags reshape the simulated hierarchy: a stride
# prefetcher must hide misses on the scan kernel (the `top` report
# grows a hidden column), and a non-default config must report itself
# on stderr. Under the full stack (non-LRU policy + L2 + prefetch) the
# step engine must print the same values and report the same
# measurement, L2 and prefetch counts included. A plain PLRU + L2 run
# strips its stream at the fewest sets of its two levels, and must
# agree with the same run under `--profile`, which replays every
# access.
./target/release/dlc top /tmp/ci_top.mc --input 20000 --epoch 8192 --limit 5 \
  --prefetch 2 > /tmp/ci_top_pf.out 2>&1
grep -q "hidden" /tmp/ci_top_pf.out
grep -q "hidden by prefetch" /tmp/ci_top_pf.out
dlc_run mem --policy plru --l2 64 --prefetch 2
grep -q "memory plru" /tmp/ci_run_mem.err
dlc_run mem_step --engine step --policy plru --l2 64 --prefetch 2
same_run mem mem_step
dlc_run l2 --policy plru --l2 64
grep -q "memory plru+l2:64KB-8w-incl: L2 [0-9]* hits" /tmp/ci_run_l2.err
dlc_run l2_profile --policy plru --l2 64 --profile
same_run l2 l2_profile
echo "dlc memory flags OK"

echo "== repository benchmark: own tests, smoke run, perf-regression gate =="
# perfbench's tests and its runs share one target dir: run.py builds
# into $CARGO_TARGET_DIR, or .bench_build when that is unset.
bench_target="${CARGO_TARGET_DIR:-.bench_build}"
cargo test -q --release --manifest-path perfbench/Cargo.toml --target-dir "$bench_target"
cargo clippy --manifest-path perfbench/Cargo.toml --target-dir "$bench_target" --all-targets -- -D warnings
# One 1 s run of every workload (seed 1), written in BENCH_e2e.json's
# shape by the script that regenerates it; a failed op fails here.
python3 bench_e2e.py 1 1 > /tmp/ci_e2e.json
# Each workload's insts_per_s against the committed 20 s medians.
# perfbench normalises host speed, but one short run still swings, so
# the threshold is deliberately generous: this gate catches collapses
# (an engine falling off its fast path), not scheduling noise. It sits
# below 75% because a shadow LRU stack four times slower (the speed of
# the Fenwick-tree stack it replaced) reads about -75% on `observed`,
# and must fail here.
./target/release/dlc bench-diff BENCH_e2e.json /tmp/ci_e2e.json --threshold 70

echo "== determinism: every table against EXPERIMENTS.md =="
# The committed EXPERIMENTS.md is the one reference for the
# determinism contract. Three full regenerations must reproduce it
# byte for byte: A under the step engine (the reference interpreter)
# on four prewarm workers, B under the block engine on two with
# `--profile`, C under the step engine on two with no instrumentation.
# A and B classify every miss (`--manifest` turns classification on)
# and trace every span. The one-worker render is perfbench's `tables`
# op, which bench_e2e.py above checks against the same file.
./target/release/repro --engine step --jobs 4 --manifest /tmp/ci_step_manifest.json \
  --trace-out /tmp/ci_step_trace.json write-experiments /tmp/ci_step_experiments.md 2>/dev/null
cmp EXPERIMENTS.md /tmp/ci_step_experiments.md
./target/release/repro --jobs 2 --profile --manifest /tmp/ci_block_manifest.json \
  --trace-out /tmp/ci_block_trace.json write-experiments /tmp/ci_block_experiments.md \
  2>/tmp/ci_block_profile.err
cmp EXPERIMENTS.md /tmp/ci_block_experiments.md
# Classification makes every model observe every access, so neither
# run above strips the stream its plain models replay. A plain
# reference-engine run does, and must reproduce the file too.
./target/release/repro --engine step --jobs 2 write-experiments /tmp/ci_plain_step_experiments.md \
  2>/dev/null
cmp EXPERIMENTS.md /tmp/ci_plain_step_experiments.md
python3 - <<'EOF'
import json

def zero(value, timing):
    if isinstance(value, dict):
        return {k: zero(v, "sec" in k or k.endswith(("_us", "_ms", "_ns")))
                for k, v in value.items()}
    if isinstance(value, list):
        return [zero(v, timing) for v in value]
    if timing and isinstance(value, (int, float)) and not isinstance(value, bool):
        return 0
    return value

step, block = (json.load(open(f"/tmp/ci_{run}_manifest.json")) for run in ("step", "block"))
assert step["sim"]["engine"] == "step", f"the step oracle ran under {step['sim']['engine']}"
assert block["sim"]["engine"] == "block", f"the block run ran under {block['sim']['engine']}"
# Execute once, model many: the 229 configurations take 47 engine runs,
# one per planned execution (43) plus one per extension-prefetch
# benchmark, whose three site-filtered runs are requested together.
for doc in (step, block):
    counts = (doc["sim"]["configurations"], doc["memo"]["misses"])
    assert counts == (229, 47), \
        f"{doc['sim']['engine']} run: {counts[0]} simulations over {counts[1]} executions"
# Sections that are deterministic by contract. Scheduling-dependent
# counters (workers, memo waits, per-pass hit splits under racing
# OnceLock initialization) and the engine's own block-cache counters
# legitimately differ between the two runs.
step, block = zero(step, False), zero(block, False)
for key in ("schema", "command", "stages", "miss_classes", "reuse", "profile", "memory"):
    assert step[key] == block[key], f"zeroed manifest `{key}` differs between the runs"
names = [s["name"] for s in step["stages"]]
assert names == sorted(names), "manifest stages not sorted"
mc = step["miss_classes"]
split = (mc["classified_runs"], mc["compulsory"], mc["capacity"], mc["conflict"])
assert split == (229, 1308170, 22515940, 1870791), f"three-Cs split moved: {mc}"
report = open("/tmp/ci_block_profile.err").read()
line = f"({mc['total']} classified misses over {mc['classified_runs']} runs)"
assert any(l.startswith("miss classes:") and line in l for l in report.splitlines()), \
    "--profile report lacks its miss classes line"
print(f"determinism OK: both engines reproduce EXPERIMENTS.md; {len(names)} stages agree; "
      "229 simulations over 47 executions")
EOF

echo "CI green"
