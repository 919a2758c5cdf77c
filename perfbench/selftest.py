#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Runs the one command (perfbench/run.py --tiny) on every workload of
BENCHMARK.json, untraced and traced, and checks that each run prints a
host fingerprint and every metric BENCHMARK.json names for the mode,
with its unit, in a correct result. Exits 1 on the first failure.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            cmd = spec["command"] + ["--workload", workload, "--seed", "1",
                                     "--seconds", "1", "--trace", trace,
                                     "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=300)
            label = "%s --trace %s" % (workload, trace)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr[-4000:])
                print("FAIL %s: exit %d" % (label, proc.returncode))
                return 1
            lines = proc.stdout.rstrip("\n").split("\n")
            result = json.loads(lines[-1])
            want = spec["per_layer" if trace == "1" else "end_to_end"]
            for m in want:
                got = result["metrics"].get(m["name"])
                printed = any(l.split()[:2] == ["metric", m["name"]] and
                              l.split()[-1] == m["unit"] for l in lines)
                if got is None or got["unit"] != m["unit"] or not printed:
                    print("FAIL %s: metric %s [%s] not printed" %
                          (label, m["name"], m["unit"]))
                    return 1
            if not result["correct"] or result["attempted"] < 1:
                print("FAIL %s: result not correct" % label)
                return 1
            if not any(l.startswith("fingerprint {") for l in lines):
                print("FAIL %s: no fingerprint line" % label)
                return 1
            print("ok   %s: %d metrics, %d operations" %
                  (label, len(want), result["attempted"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
