"""Fast self-check of the benchmark on tiny versions of its workloads.

    python3 perfbench/smoke.py

Runs every workload shrunk to a tiny grid and a short time span, once
untraced and once traced, through the same code as run.py, with
references generated for the tiny sizes under ``.perfbench/smoke``.  It checks
that each run is correct, that every metric of BENCHMARK.json is emitted
with its unit, that untraced executions ran without any tracing wrapper,
and that the layer self times of a traced execution add up to its traced
wall time.  Exits with code 1 on the first failed check.  Takes about a
minute.
"""

from __future__ import annotations

import json
import shutil
import sys

import refgen
import run
import workloads
from tracing import LAYERS

TINY = {
    "vdp_milne_1d": {"problem": {"n": 16}, "run": {"t_end": 0.05}},
    "gs_abc_avg_2d": {"problem": {"n": 16}, "run": {"t_end": 0.05}},
    "gs_converge_1d": {"problem": {"n": 16}, "converge": {"t_end": 0.25}},
}
LAYER_SELF = [f"{layer}.self_s" for layer in LAYERS]


def tiny(name: str) -> dict:
    entry = workloads.spec(name)
    entry["name"] = f"smoke_{name}"
    for block, values in TINY[name].items():
        entry["config"][block].update(values)
    return entry


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"smoke: FAILED: {what}")


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    work = run.WORK / "smoke"
    shutil.rmtree(work, ignore_errors=True)
    refs = work / "refs"
    refs.mkdir(parents=True)
    splitstep = workloads.import_splitstep(run.SRC)
    for name in workloads.WORKLOADS:
        entry = tiny(name)
        refgen.generate(splitstep, entry, refs / f"{entry['name']}.npz")
        for traced in (False, True):
            rec = run.run_benchmark(entry, 1, 0.1, traced, bench, work, refs,
                                    log=lambda line: None)
            res = rec["result"]
            label = f"{name} trace={int(traced)}"
            reasons = [r for ex in rec["executions"] for r in ex["reasons"]]
            check(res["correct"] and res["failed"] == 0, f"{label}: {reasons}")
            declared = bench["per_layer" if traced else "end_to_end"]
            check([(k, v["unit"]) for k, v in res["metrics"].items()]
                  == [(m["name"], m["unit"]) for m in declared],
                  f"{label}: metric names or units differ from BENCHMARK.json")
            check(all(isinstance(v["value"], (int, float)) for v in res["metrics"].values()),
                  f"{label}: non-numeric metric")
            for ex in rec["executions"]:
                if not ex["traced"]:
                    check(ex["wrappers"] == 0, f"{label}: untraced exec {ex['exec']} "
                          f"ran with {ex['wrappers']} tracing wrappers")
                    continue
                check(ex["wrappers"] > 0, f"{label}: traced exec {ex['exec']} has no wrappers")
                lay = ex["layers"]
                total = sum(lay[k] for k in LAYER_SELF)
                check(abs(total - lay["trace.solve_s"]) <= 1e-9 * lay["trace.solve_s"],
                      f"{label}: layer self times sum to {total}, traced wall "
                      f"{lay['trace.solve_s']}")
                check(abs(lay["trace.solve_s"] - ex["solve_s"]) <= 0.01 * ex["solve_s"] + 1e-3,
                      f"{label}: root span {lay['trace.solve_s']} vs wall {ex['solve_s']}")
                check(lay["problems.flow_evals"] > 0 and lay["spectral.transforms"] > 0,
                      f"{label}: no flows or transforms traced")
            print(f"smoke: {label}: ok ({res['attempted']} executions)")
    shutil.rmtree(work, ignore_errors=True)
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
