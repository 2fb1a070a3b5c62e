#!/usr/bin/env python3
"""Build and run the rrl benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper_rrl --seed 1 --seconds 10 --trace 0

Builds perfbench/CMakeLists.txt (the rrl library, rrl_solve and the
rrlbench program) into .bench_build/, runs rrlbench, relays its output and
checks that the last line is the result object whose metric names are the
ones BENCHMARK.json declares for the run's mode (end_to_end for --trace 0,
per_layer for --trace 1). Exit status is rrlbench's, or non-zero when the
build fails, the sources are missing, or the result does not match
BENCHMARK.json.

    python3 perfbench/run.py --record --workload study_sweep

re-records the workload's reference table (perfbench/reference/*.csv).
--record and --deviation-table run without the time limit of a measuring
run: recording paper_rrl takes about 9 minutes (see perfbench/NOTES.md).
"""
import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper_rrl", "study_sweep", "large_lumped", "fleet_warm")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(root, bench_dir):
    build_dir = root / ".bench_build" / "cmake"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "rrlbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    return build_dir


def expected_metrics(root, trace):
    spec_path = root / "BENCHMARK.json"
    if not spec_path.exists():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_bench(cmd, timeout):
    """Run rrlbench in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"rrlbench exceeded {timeout} s and was killed")
        return 1, ""
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reduced", action="store_true",
                    help="smoke size: a few cells, one pass")
    ap.add_argument("--record", action="store_true",
                    help="re-record the workload's reference table")
    ap.add_argument("--deviation-table", action="store_true",
                    help="print the UR deviation table of NOTES.md")
    args = ap.parse_args()

    root = Path.cwd()
    bench_dir = Path(__file__).resolve().parent
    if not (root / "CMakeLists.txt").exists() or not (root / "src").is_dir():
        log(f"no rrl sources under {root}; run from the repository root")
        return 2
    build_dir = build(root, bench_dir)
    if build_dir is None:
        return 1

    cmd = [str(build_dir / "rrlbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--ref-dir", str(bench_dir / "reference"),
           "--work-dir", str(root / ".bench_build" / "work" / args.workload),
           "--rrl-solve", str(build_dir / "rrl" / "rrl_solve")]
    if args.reduced:
        cmd.append("--reduced")
    if args.record:
        cmd.append("--record")
    if args.deviation_table:
        cmd.append("--deviation-table")
    offline = args.record or args.deviation_table
    code, out = run_bench(cmd, None if offline else RUN_TIMEOUT_S)
    sys.stdout.write(out)
    sys.stdout.flush()
    if offline or code not in (0, 1):
        return code

    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("rrlbench printed no result line")
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"result keys {sorted(result)} are not "
            "correct/attempted/failed/metrics")
        return 1
    want = expected_metrics(root, args.trace)
    if want is not None and set(result["metrics"]) != want:
        log("metric names differ from BENCHMARK.json: "
            f"missing {sorted(want - set(result['metrics']))}, "
            f"extra {sorted(set(result['metrics']) - want)}")
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
