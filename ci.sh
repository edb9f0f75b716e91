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

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test -q =="
cargo test -q --workspace

echo "== cargo clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== repro manifest smoke =="
./target/release/repro --smoke --jobs 2 --manifest /tmp/ci_manifest.json > /dev/null
test -s /tmp/ci_manifest.json

# The manifest is the observability contract: fail CI if a mandatory
# section or key disappears.
if command -v python3 >/dev/null 2>&1; then
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
elif command -v jq >/dev/null 2>&1; then
  jq -e '.schema == "dl-obs/1" and (.stages | length > 0) and .memo.hit_rate != null
         and (.workers | length > 0) and .sim.insts_per_sec > 0
         and (.sim.engine == "step" or .sim.engine == "block") and .sim.block_cache != null
         and .sim.latency.p50_secs != null and .sim.latency.p99_secs != null
         and .miss_classes.total > 0 and .memory.prefetch_fills != null and .reuse.loads > 0
         and .profile.loads > 0 and (.profile.modeled + .profile.abstained) == .profile.loads
         and .analysis.contexts > 0 and .analysis.hits > 0
         and (.analysis.passes | length == 9)' /tmp/ci_manifest.json >/dev/null
  echo "RUN_MANIFEST OK"
else
  echo "warning: neither python3 nor jq available; skipped manifest validation"
fi

echo "== trace export smoke =="
./target/release/repro --smoke --jobs 2 --trace-out /tmp/ci_trace.json table3 > /dev/null
test -s /tmp/ci_trace.json

# The trace is the timeline contract: valid Chrome trace-event JSON
# with complete ("X") events carrying the required keys, and spans for
# each pipeline layer (compile, per-pass analysis, simulation).
if command -v python3 >/dev/null 2>&1; then
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
elif command -v jq >/dev/null 2>&1; then
  jq -e '(.traceEvents | length > 0)
         and ([.traceEvents[] | select(.name and .ph == "X" and .ts != null and .dur != null)] | length) == (.traceEvents | length)
         and ([.traceEvents[].cat] | unique | contains(["analysis", "compile", "sim"]))' \
    /tmp/ci_trace.json >/dev/null
  echo "trace OK"
else
  echo "warning: neither python3 nor jq available; skipped trace validation"
fi

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
# The observatory must never perturb the simulation itself: stdout of
# a plain run is byte-identical whether or not `top` instrumented it.
./target/release/dlc run /tmp/ci_top.mc --input 20000 > /tmp/ci_run_plain.out 2>/dev/null
./target/release/dlc run /tmp/ci_top.mc --input 20000 --engine step > /tmp/ci_run_step.out 2>/dev/null
cmp /tmp/ci_run_plain.out /tmp/ci_run_step.out
echo "dlc top OK"

echo "== dlc memory-system smoke =="
# The memory flags reshape the simulated hierarchy: a stride
# prefetcher must hide misses on the scan kernel (the `top` report
# grows a hidden column), the same config must arrive via DL_* env
# vars, and the step engine must agree byte-for-byte under the full
# stack (non-LRU policy + L2 + prefetch).
./target/release/dlc top /tmp/ci_top.mc --input 20000 --epoch 8192 --limit 5 \
  --prefetch 2 > /tmp/ci_top_pf.out 2>&1
grep -q "hidden" /tmp/ci_top_pf.out
grep -q "hidden by prefetch" /tmp/ci_top_pf.out
DL_POLICY=plru DL_L2=64 DL_PREFETCH=2 ./target/release/dlc run /tmp/ci_top.mc \
  --input 20000 > /tmp/ci_run_env.out 2>/tmp/ci_run_env.err
grep -q "memory plru" /tmp/ci_run_env.err
./target/release/dlc run /tmp/ci_top.mc --input 20000 \
  --policy plru --l2 64 --prefetch 2 > /tmp/ci_run_mem.out 2>/dev/null
cmp /tmp/ci_run_env.out /tmp/ci_run_mem.out
./target/release/dlc run /tmp/ci_top.mc --input 20000 --engine step \
  --policy plru --l2 64 --prefetch 2 > /tmp/ci_run_mem_step.out 2>/dev/null
cmp /tmp/ci_run_mem.out /tmp/ci_run_mem_step.out
echo "dlc memory flags OK"

echo "== repository benchmark: own tests, smoke run, perf-regression gate =="
# perfbench's tests and its runs share one target dir: run.py builds
# into $CARGO_TARGET_DIR, or .bench_build when that is unset.
bench_target="${CARGO_TARGET_DIR:-.bench_build}"
cargo test -q --release --manifest-path perfbench/Cargo.toml --target-dir "$bench_target"
# One 1 s run of every workload (seed 1), written in BENCH_e2e.json's
# shape by the script that regenerates it; a failed op fails here.
python3 bench_e2e.py 1 1 > /tmp/ci_e2e.json
# Each workload's insts_per_s against the committed 20 s medians.
# perfbench normalises host speed, but one short run still swings, so
# the threshold is deliberately generous: this gate catches
# order-of-magnitude collapses (an engine falling off its fast path),
# not scheduling noise.
./target/release/dlc bench-diff BENCH_e2e.json /tmp/ci_e2e.json --threshold 75

echo "== repro determinism check =="
./target/release/repro --jobs 1 table3 > /tmp/ci_seq.out 2>/dev/null
./target/release/repro --jobs 4 table3 > /tmp/ci_par.out 2>/dev/null
cmp /tmp/ci_seq.out /tmp/ci_par.out
echo "parallel output byte-identical"
DL_OBS=text ./target/release/repro --jobs 2 table3 > /tmp/ci_obs.out 2>/dev/null
cmp /tmp/ci_seq.out /tmp/ci_obs.out
echo "observed (DL_OBS=text) output byte-identical"

echo "== reuse-predictor determinism check =="
./target/release/repro --jobs 1 extension-reuse > /tmp/ci_reuse_seq.out 2>/dev/null
./target/release/repro --jobs 4 extension-reuse > /tmp/ci_reuse_par.out 2>/dev/null
cmp /tmp/ci_reuse_seq.out /tmp/ci_reuse_par.out
echo "extension-reuse output byte-identical"

echo "== reuse-profile determinism check =="
# The profile engine's OnceLock-cached histograms and the per-geometry
# pricing must not depend on worker scheduling: both profile tables are
# byte-compared across job counts, and so is extension-prefetch, whose
# runs (like profile-geometries' measured runs) bypass the memo.
./target/release/repro --jobs 1 extension-prefetch extension-profile profile-geometries > /tmp/ci_prof_seq.out 2>/dev/null
./target/release/repro --jobs 4 extension-prefetch extension-profile profile-geometries > /tmp/ci_prof_par.out 2>/dev/null
cmp /tmp/ci_prof_seq.out /tmp/ci_prof_par.out
echo "profile and prefetch tables byte-identical"

echo "== manifest + trace combination determinism check =="
# --manifest and --trace-out together must not perturb table output,
# and the manifest's stage list must be schedule-independent: with
# timings stripped, runs at different job counts render identical
# manifests.
./target/release/repro --smoke --jobs 1 --manifest /tmp/ci_m1.json --trace-out /tmp/ci_t1.json table3 > /tmp/ci_mt1.out 2>/dev/null
./target/release/repro --smoke --jobs 4 --manifest /tmp/ci_m4.json --trace-out /tmp/ci_t4.json table3 > /tmp/ci_mt4.out 2>/dev/null
cmp /tmp/ci_mt1.out /tmp/ci_mt4.out
if command -v python3 >/dev/null 2>&1; then
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

docs = [zero(json.load(open(p)), False) for p in ("/tmp/ci_m1.json", "/tmp/ci_m4.json")]
# Sections that are deterministic by contract. Scheduling-dependent
# counters (workers, memo waits, per-pass hit splits under racing
# OnceLock initialization) are legitimately job-count-dependent.
for key in ("schema", "command", "stages", "miss_classes", "reuse", "profile"):
    assert docs[0][key] == docs[1][key], f"zeroed manifest `{key}` diverges across job counts"
names = [s["name"] for s in docs[0]["stages"]]
assert names == sorted(names), f"manifest stages not sorted: {names}"
print(f"manifest+trace OK: {len(names)} stages, schedule-independent")
EOF
else
  echo "warning: python3 unavailable; skipped manifest combination validation"
fi

echo "== memory-system matrix determinism check =="
# The extension-memmatrix table sweeps {replacement policy} × {L1,
# +L2 inclusive, +L2 exclusive} × {prefetch off/on}; its output must
# be byte-identical across worker counts and across both simulator
# engines (smoke inputs — the full sweep runs in the test suite).
./target/release/repro --smoke --jobs 1 extension-memmatrix > /tmp/ci_mem_seq.out 2>/dev/null
./target/release/repro --smoke --jobs 4 extension-memmatrix > /tmp/ci_mem_par.out 2>/dev/null
cmp /tmp/ci_mem_seq.out /tmp/ci_mem_par.out
DL_SIM_ENGINE=step ./target/release/repro --smoke --jobs 4 extension-memmatrix > /tmp/ci_mem_step.out 2>/dev/null
cmp /tmp/ci_mem_seq.out /tmp/ci_mem_step.out
grep -q "plru" /tmp/ci_mem_seq.out
grep -q "random" /tmp/ci_mem_seq.out
echo "memory-matrix table byte-identical across jobs and engines"

echo "== paper-tables determinism check =="
# The shared AnalysisCtx must not change any table under concurrency:
# the heuristic, baseline, and combination tables are byte-compared
# across worker counts.
./target/release/repro --jobs 1 table11 table12 table14 > /tmp/ci_paper_seq.out 2>/dev/null
./target/release/repro --jobs 4 table11 table12 table14 > /tmp/ci_paper_par.out 2>/dev/null
cmp /tmp/ci_paper_seq.out /tmp/ci_paper_par.out
echo "paper tables byte-identical"

echo "== engine equivalence check =="
# The block-cached engine is a pure optimization: the reference step
# interpreter must render byte-identical paper tables. The parallel
# block-engine run above doubles as the "block" side for tables 11/12/14.
DL_SIM_ENGINE=step ./target/release/repro --jobs 4 table11 table12 table14 > /tmp/ci_step_paper.out 2>/dev/null
cmp /tmp/ci_paper_seq.out /tmp/ci_step_paper.out
DL_SIM_ENGINE=step ./target/release/repro --jobs 4 table3 > /tmp/ci_step_t3.out 2>/dev/null
cmp /tmp/ci_seq.out /tmp/ci_step_t3.out
# The next-line prefetcher and the reuse measurement's stack run
# outside the memo; the sequential block-engine run of the
# reuse-profile check above is their "block" side.
DL_SIM_ENGINE=step ./target/release/repro --jobs 4 extension-prefetch extension-profile profile-geometries > /tmp/ci_step_prof.out 2>/dev/null
cmp /tmp/ci_prof_seq.out /tmp/ci_step_prof.out
echo "step and block engines byte-identical"

echo "CI green"
