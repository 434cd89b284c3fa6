"""Workload table of the splitstep benchmark and helpers shared by its scripts.

Each workload is one CLI call (``splitstep run`` or ``splitstep converge``)
with a committed config file under ``configs/``.  Why each workload is in
the set is recorded in ``BENCHMARK.json`` and explained in ``README.md``.

The benchmark's ``--seed`` does not reach the program: each workload's
inputs are fixed by its config.  ``gs_abc_avg_2d`` draws its random initial
state with the fixed ``initial_args.seed`` 0, because forwarding the
benchmark seed made its work (468 to 641 steps) and its accuracy vary
across seeds by more than the benchmark's bounds allow (README.md).
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent

# command      CLI subcommand
# max_err      accuracy limit on final_err (relative L2), about 3x what the
#              program reached when the benchmark was made, so only a real
#              accuracy loss trips it
# ref_floor    floor asked of the generated reference state, relative to the
#              initial state's norm; the check also demands floor <= final_err/100
# orders       converge only: declared order of each subject
# slope_window converge only: allowed |fitted L2 slope - expected slope|
WORKLOADS = {
    "vdp_milne_1d": {
        "command": "run",
        "max_err": 2.5e-2,
        "ref_floor": 1e-5,
    },
    "gs_abc_avg_2d": {
        "command": "run",
        "max_err": 2.5e-5,
        "ref_floor": 1e-9,
    },
    "gs_converge_1d": {
        "command": "converge",
        "max_err": 4e-7,
        "ref_floor": 1e-8,
        "orders": {"strang": 2, "emb23c": 2},
        "slope_window": 0.3,
    },
}


def spec(name: str) -> dict:
    """Workload entry with its parsed CLI config under ``"config"``."""
    entry = copy.deepcopy(WORKLOADS[name])
    entry["name"] = name
    entry["config"] = json.loads((HERE / "configs" / f"{name}.json").read_text())
    return entry


def cli_argv(entry: dict, config_path, out_dir) -> list:
    return [entry["command"], "--config", str(config_path), "--out", str(out_dir)]


def grid_of(config: dict) -> tuple:
    """(dim, a, n) of the config's torus grid, with the CLI's defaults."""
    p = config["problem"]
    return int(p.get("dim", 1)), float(p.get("a", math.pi)), int(p.get("n", 64))


def field_bytes(config: dict) -> int:
    """Bytes of one two-component complex128 state on the config's grid."""
    dim, _, n = grid_of(config)
    return 2 * n**dim * 16


def import_splitstep(src):
    """Import splitstep from ``src`` and refuse any other installed copy."""
    import sys

    src = Path(src).resolve()
    sys.path.insert(0, str(src))
    import splitstep

    where = Path(splitstep.__file__).resolve()
    if src not in where.parents:
        raise ImportError(f"splitstep imported from {where}, not from {src}")
    return splitstep
