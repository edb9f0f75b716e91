#!/usr/bin/env python3
"""Run the repository benchmark and print its medians as BENCH_e2e.json.

    python3 bench_e2e.py SECONDS SEED... > BENCH_e2e.json

Run from the repository root. For every workload BENCHMARK.json declares,
runs `perfbench/run.py --trace 0` once per seed at SECONDS and prints one
JSON object: the commit measured, the seeds, the run length, and for each
workload the median of each end-to-end metric over the seeds. That object
is what `dlc bench-diff` compares. Exits non-zero, printing nothing, if a
run fails or reports a failed op.
"""

import json
import statistics
import subprocess
import sys

OUT = "BENCH_e2e.json"


def fail(message):
    print(f"bench_e2e.py: {message}", file=sys.stderr)
    sys.exit(1)


def git(*args):
    return subprocess.run(["git", *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def commit():
    """HEAD, marked dirty when tracked files other than OUT differ from it,
    or "unknown" outside a git checkout."""
    try:
        head = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no", "--", ".",
                    f":!{OUT}")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head + ("-dirty" if dirty else "")


def run(workload, seed, seconds):
    print(f"bench_e2e.py: {workload} seed {seed}", file=sys.stderr)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if result["failed"] or not result["correct"]:
        fail(f"{workload} seed {seed}: {result['failed']} of "
             f"{result['attempted']} ops failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    if len(sys.argv) < 3:
        fail("usage: python3 bench_e2e.py SECONDS SEED...")
    seconds = int(sys.argv[1])
    seeds = [int(s) for s in sys.argv[2:]]
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    doc = {"commit": commit(), "seeds": seeds, "seconds": seconds}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run(workload, seed, seconds) for seed in seeds]
        doc[workload] = {
            m["name"]: float(f"{statistics.median(r[m['name']] for r in runs):.6g}")
            for m in spec["end_to_end"]
        }
    print(json.dumps(doc, indent=2))


if __name__ == "__main__":
    main()
