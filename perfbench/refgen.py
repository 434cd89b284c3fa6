"""Reference states for the benchmark's accuracy checks.

    python3 perfbench/refgen.py --workload NAME [--out DIR]

writes ``DIR/<NAME>.npz`` (``DIR`` defaults to ``perfbench/refs``).  The
references committed under ``perfbench/refs`` were made with

    python3 perfbench/refgen.py --workload vdp_milne_1d
    python3 perfbench/refgen.py --workload gs_abc_avg_2d
    python3 perfbench/refgen.py --workload gs_converge_1d

The state at ``t_end`` comes from ``splitstep.reference_solution`` (fixed
steps of the highest-order registered scheme, halved until two answers
agree) driven to the workload's relative floor ``ref_floor``, which is at
most 1/100 of the error the workload's own run makes; the run-time check
enforces that ratio.  For ``converge`` workloads the file also holds, per
subject, the global L2 error of a fixed-step solve at the finest step
against this reference, to check the errors the program reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

import workloads


def _l2(grid, data) -> float:
    # continuous L2 norm from nodal samples (equals sobolev_norm(., 0))
    return float(np.sqrt(grid.cell_volume * np.sum(np.abs(data) ** 2)))


def generate(splitstep, entry: dict, path) -> None:
    """Write the reference of a workload entry (see workloads.spec) to ``path``."""
    cfg = entry["config"]
    import splitstep.cli as cli

    # the CLI's own set-up path, so the reference starts where the run does
    reg = splitstep.builtin_registry()
    prob, f0 = cli._build_problem(cfg)
    block = cfg[entry["command"]]
    t0, t_end = float(block.get("t0", 0.0)), float(block["t_end"])
    goal = entry["ref_floor"] * splitstep.sobolev_norm(f0, 0.0)
    # the first ladder rung at span/64 (the library default) blows up on the
    # stiff van der Pol workload; span/128 is stable on all of them
    state, info = splitstep.reference_solution(
        prob, f0, t0, t_end, registry=reg, h0=(t_end - t0) / 128.0,
        target={0.0: goal}, norms=(0.0,),
    )
    ref = splitstep.to_nodal(state).data
    meta = {
        "workload": entry["name"],
        "scheme": info["scheme"],
        "h": info["h"],
        "floor_rel": info["floor"][0.0] / _l2(f0.grid, ref),
        "command": f"python3 perfbench/refgen.py --workload {entry['name']}",
        "expected_global_l2": {},
    }
    if entry["command"] == "converge":
        h_min = min(float(h) for h in block["hs"])
        for name in block["subjects"]:
            pair = reg.pairs.get(name)
            scheme = pair.integrator if pair is not None else reg.scheme(name)
            fh, _ = splitstep.integrate_fixed(prob, scheme, f0, t0, t_end, h_min)
            err = _l2(f0.grid, splitstep.to_nodal(fh).data - ref)
            meta["expected_global_l2"][name] = err
    np.savez_compressed(path, state=ref.real, meta=json.dumps(meta))


def main() -> int:
    here = Path(__file__).resolve().parent
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--out", default=str(here / "refs"))
    args = ap.parse_args()
    splitstep = workloads.import_splitstep(here.parent / "src")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{args.workload}.npz"
    generate(splitstep, workloads.spec(args.workload), path)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
