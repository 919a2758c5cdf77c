#!/usr/bin/env python3
"""Builds the repo benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds perfbench/CMakeLists.txt (the library under src/
plus the benchmark program) into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs gks_perfbench, checks that its result line
carries exactly the metrics BENCHMARK.json names for the mode, and
relays its output. The last stdout line is the result JSON. A non-zero
exit (build failure, wrong output, invalid workload) prints no result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def source_rev() -> str:
    """The git commit when the tree is a git checkout, plus a digest of
    every source the benchmark builds (checkouts without .git still get
    a stable identity)."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    rev = "src-sha256:" + digest.hexdigest()[:16]
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if git.returncode == 0:
            rev = git.stdout.strip() + " " + rev
    return rev


def build(out: Path) -> Path:
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs,
                    "--target", "gks_perfbench"],
                   stdout=sys.stderr, check=True)
    return out / "gks_perfbench"


def expected_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line: str, trace: bool) -> str:
    """Returns an error message, or '' when the result line is sound."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return "last output line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want.items()) - set(got.items()))
        extra = sorted(set(got.items()) - set(want.items()))
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            missing, extra)
    return ""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken key spaces, for the self-test")
    args = parser.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (subprocess.CalledProcessError, FileNotFoundError) as err:
        print("build failed: %s" % err, file=sys.stderr)
        return 1
    work = out / "work"
    traces = out / "traces"
    work.mkdir(exist_ok=True)
    traces.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--work-dir", str(work),
           "--source-rev", source_rev()]
    if args.trace == "1":
        cmd += ["--trace-out",
                str(traces / ("%s-seed%d.jsonl" % (args.workload, args.seed)))]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("benchmark exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        print("benchmark exited %d" % proc.returncode, file=sys.stderr)
        return proc.returncode
    error = check_result(lines[-1], args.trace == "1")
    if error:
        sys.stderr.write(proc.stdout)
        print("bad result: " + error, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
