#!/usr/bin/env python3
"""Smoke self-check of the benchmark.

Run from the repository root:

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json once, reduced (a few cells, one
pass), untraced and traced, through the benchmark command, and checks for
each run that it exits 0 and that the output gate ran (its "gate: checked
N points" line with N > 0). The command itself checks the result line and
that its metric names are the ones BENCHMARK.json declares for the mode.
"""
import json
import re
import subprocess
import sys
from pathlib import Path


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", workload, "--seed", "1",
                                     "--seconds", "1", "--trace", str(trace),
                                     "--reduced"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            problems = []
            if proc.returncode != 0:
                problems.append(f"exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-300:]}")
            gate = re.search(r"^gate: checked (\d+) points", proc.stdout,
                             re.MULTILINE)
            if gate is None or int(gate.group(1)) == 0:
                problems.append("output gate did not run")
            label = f"{workload} trace={trace}"
            if problems:
                failures += 1
                print(f"FAIL {label}: " + "; ".join(problems))
            else:
                print(f"ok   {label}: {gate.group(1)} points gated")
    print("smoke: " + ("FAILED" if failures else "all workloads ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
