#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

Run from the repository root. Builds the `perfbench` binary from source
(release profile, into $CARGO_TARGET_DIR or `.bench_build`), runs one
workload with every DL_* variable removed from its environment, checks
that its result names exactly the metrics BENCHMARK.json declares, and
prints that result as the last line of standard output. A traced run
also writes a Perfetto-loadable Chrome trace under
<target dir>/perfbench/. Exits non-zero, printing no result, when the
build, the run, or the check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark must exit within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.abspath(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT,
        env=dict(os.environ, CARGO_TARGET_DIR=target),
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"build failed (exit {build.returncode})")

    command = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        out_dir = os.path.join(target, "perfbench")
        os.makedirs(out_dir, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")]
    env = {k: v for k, v in os.environ.items() if not k.startswith("DL_")}
    try:
        run = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"no result within {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        fail(f"perfbench exited {run.returncode}")

    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"last line is not JSON: {e}")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"unexpected result keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = declared_metrics(args.trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, "
             f"or units differ")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
