#!/usr/bin/env python3
"""Compares saved benchmark outputs, refusing rows from different hosts.

    python3 perfbench/compare.py BASE_OUTPUT... -- NEW_OUTPUT...

Each file holds the stdout of one or more perfbench/run.py runs. For
every workload and metric the medians of both sides and their ratio
are printed.
The host part of every run's fingerprint (CPU, nproc, compiler, flags,
best lane ISA) must be identical on both sides; otherwise the comparison
is refused with exit code 2. The lane ISA and width a run's calibration
chose are left out: calibration is timed, so it may differ between runs
on one host.
"""

import json
import statistics
import sys

HOST_KEYS = ("cpu", "nproc", "compiler", "flags", "best_isa")


def load(paths):
    hosts, values = set(), {}
    for path in paths:
        workload = "?"
        with open(path) as f:
            for line in f:
                if line.startswith("fingerprint "):
                    fp = json.loads(line[len("fingerprint "):])
                    hosts.add(tuple(fp.get(k) for k in HOST_KEYS))
                elif line.startswith("inputs "):
                    workload = json.loads(line[len("inputs "):])["workload"]
                elif line.startswith('{"correct"'):
                    for name, m in json.loads(line)["metrics"].items():
                        values.setdefault((workload, name, m["unit"]),
                                          []).append(m["value"])
    return hosts, values


def main(argv) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    base_hosts, base = load(argv[:cut])
    new_hosts, new = load(argv[cut + 1:])
    hosts = base_hosts | new_hosts
    if len(hosts) != 1:
        print("refused: runs come from %d different host fingerprints:"
              % len(hosts), file=sys.stderr)
        for h in sorted(hosts, key=str):
            print("  " + json.dumps(dict(zip(HOST_KEYS, h))), file=sys.stderr)
        return 2
    print("%-14s %-28s %-12s %14s %14s %8s" % (
        "workload", "metric", "unit", "base", "new", "new/base"))
    for key in sorted(set(base) & set(new)):
        b, n = statistics.median(base[key]), statistics.median(new[key])
        ratio = "%.3f" % (n / b) if b else "-"
        print("%-14s %-28s %-12s %14.6g %14.6g %8s" % (key + (b, n, ratio)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
