"""Compare two result sets of the benchmark.

    python3 perfbench/compare.py DIR_A DIR_B

Each directory holds the run records that ``run.py --results DIR`` wrote,
for example one directory per commit.  For every workload and end-to-end
metric of BENCHMARK.json the script prints each side's median and
quartiles over its untraced runs and the change of B's median against A's,
and flags a change larger than the metric's bound: ``WORSE`` in the
metric's bad direction, ``better`` in the other.  A change within the
bound is flagged ``unresolved`` when A's own spread (quartile distance
over median) is wider than the bound, unless every run of B reads better
than every run of A.  It exits with code 1 when any metric is flagged
``WORSE``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory) -> dict:
    """workload -> metric -> values over the untraced runs in ``directory``."""
    out = defaultdict(lambda: defaultdict(list))
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        if rec.get("trace") != 0:
            continue
        for name, metric in rec["result"]["metrics"].items():
            out[rec["workload"]][name].append(metric["value"])
    return out


def summary(values) -> tuple:
    """(median, first quartile, third quartile) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = load(argv[0]), load(argv[1])
    worse = 0
    for workload in sorted(set(a) | set(b)):
        for m in bench["end_to_end"]:
            va, vb = a[workload].get(m["name"], []), b[workload].get(m["name"], [])
            if not va or not vb:
                print(f"{workload:<15} {m['name']:<12} missing on one side")
                continue
            (ma, qa1, qa3), (mb, qb1, qb3) = summary(va), summary(vb)
            change = (mb - ma) / ma
            bad = change if m["better"] == "lower" else -change
            if m["better"] == "lower":
                all_better = max(vb) < min(va)
            else:
                all_better = min(vb) > max(va)
            flag = ""
            if abs(change) > m["bound"]:
                flag = "WORSE" if bad > 0 else "better"
                worse += bad > 0
            elif (qa3 - qa1) / ma > m["bound"] and not all_better:
                flag = "unresolved"
            print(f"{workload:<15} {m['name']:<12} "
                  f"A {ma:.4g} [{qa1:.4g}, {qa3:.4g}] n={len(va)}  "
                  f"B {mb:.4g} [{qb1:.4g}, {qb3:.4g}] n={len(vb)}  "
                  f"{change:+.1%} {m['unit']} (bound {m['bound']:.0%}) {flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
