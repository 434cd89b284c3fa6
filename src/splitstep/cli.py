"""Command-line front end.

Subcommands::

    splitstep run      --config cfg.json [--schemes extra.json ...] [--out DIR]
    splitstep converge --config cfg.json [--jobs N] [...]
    splitstep compare  --config cfg.json [...]
    splitstep schemes  [--schemes extra.json ...]

The config is a single JSON file with a "problem" block plus one block
per subcommand; see the README for the full schema.  Exit codes are a
stable contract: 0 success, 2 configuration/input errors, 3 numerical
failures.  Outputs land in --out (or $SPLITSTEP_OUT, default ".").
Every command runs serially (``--jobs`` is accepted and has no effect).
Runs of the same config and scheme files produce byte-identical
trajectory and convergence CSVs; the compare command embeds wall-clock
timings, which naturally vary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from .control import StepControlConfig, integrate_adaptive, integrate_fixed, write_trajectory_csv
from .diagnostics import (
    FixedSolves,
    convergence_study,
    efficiency_compare,
    write_convergence_csv,
    write_efficiency_csv,
)
from .exceptions import ConfigError, NumericalError, RepresentationError
from .problems import (
    GrayScottParams,
    VdpParams,
    gray_scott_abc_problem,
    gray_scott_problem,
    initial_condition,
    linear_problem,
    van_der_pol_problem,
)
from .schemes import builtin_registry, load_scheme_file
from .spectral import TorusGrid, write_field

__all__ = ["main"]


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


def _registry_from(args):
    reg = builtin_registry()
    for path in args.schemes or []:
        load_scheme_file(reg, path)
    return reg


def _provenance(args, cfg) -> dict:
    meta = {"config_sha256": hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()).hexdigest()}
    for i, path in enumerate(args.schemes or []):
        with open(path, "rb") as fh:
            meta[f"scheme_file_{i}"] = f"{path}:{hashlib.sha256(fh.read()).hexdigest()}"
    return meta


def _build_problem(cfg: dict, seed=None):
    try:
        pcfg = cfg["problem"]
        name = pcfg["name"]
    except KeyError as exc:
        raise ConfigError(f"config: missing key {exc}") from exc
    try:
        return _build_problem_inner(pcfg, name, seed)
    except RepresentationError as exc:
        # bad grid dims, unknown preset names: user input, not a library bug
        raise ConfigError(f"problem block: {exc}") from exc
    except TypeError as exc:
        raise ConfigError(f"problem block: {exc}") from exc


def _build_problem_inner(pcfg: dict, name: str, seed):
    grid = TorusGrid(
        dim=int(pcfg.get("dim", 1)),
        a=float(pcfg.get("a", np.pi)),
        n=int(pcfg.get("n", 64)),
    )
    params = pcfg.get("params", {})
    if name == "gray_scott":
        prob = gray_scott_problem(
            grid,
            GrayScottParams(**params),
            rk4_substep=float(pcfg.get("rk4_substep", 0.1)),
            dealias=bool(pcfg.get("dealias", False)),
        )
    elif name == "gray_scott_abc":
        prob = gray_scott_abc_problem(
            grid, GrayScottParams(**params), dealias=bool(pcfg.get("dealias", False))
        )
    elif name == "van_der_pol":
        prob = van_der_pol_problem(grid, VdpParams(**params))
    elif name == "linear":
        prob = linear_problem(grid, diffusion=float(pcfg.get("diffusion", 0.5)))
    else:
        raise ConfigError(f"unknown problem {name!r}")
    ic_args = dict(pcfg.get("initial_args", {}))
    if seed is not None:
        ic_args["seed"] = seed
    f0 = initial_condition(pcfg.get("initial", "gs_bump"), grid, **ic_args)
    if f0.m != prob.m:
        raise ConfigError(
            f"initial condition has {f0.m} components, problem needs {prob.m}"
        )
    return prob, f0


def _control_config(block: dict) -> StepControlConfig:
    try:
        return StepControlConfig(**block)
    except TypeError as exc:
        raise ConfigError(f"control block: {exc}") from exc


def _require(block: dict, key: str, where: str):
    try:
        return block[key]
    except KeyError:
        raise ConfigError(f"config: {where!r} block needs {key!r}") from None


def _setup(args, command: str):
    """Config, registry, problem, initial state, the command's block and its span."""
    cfg = _load_config(args.config)
    reg = _registry_from(args)
    prob, f0 = _build_problem(cfg, seed=args.seed)
    try:
        block = cfg[command]
    except KeyError:
        raise ConfigError(f"config: missing {command!r} block") from None
    t0 = float(block.get("t0", 0.0))
    return cfg, reg, prob, f0, block, t0, float(_require(block, "t_end", command))


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("SPLITSTEP_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_run(args) -> int:
    cfg, reg, prob, f0, rcfg, t0, t_end = _setup(args, "run")
    out = _out_dir(args)
    outputs = rcfg.get("outputs", {})
    mode = rcfg.get("mode", "adaptive")
    if mode == "adaptive":
        pair = reg.pair(_require(rcfg, "pair", "run"))
        ctrl = _control_config(rcfg.get("control", {}))
        state, traj = integrate_adaptive(
            prob, pair, f0, t0, t_end, ctrl,
            snapshot_every=rcfg.get("snapshot_every"),
            snapshot_times=rcfg.get("snapshot_times"),
        )
    elif mode == "fixed":
        scheme = reg.scheme(_require(rcfg, "scheme", "run"))
        state, traj = integrate_fixed(
            prob, scheme, f0, t0, t_end, float(_require(rcfg, "h", "run"))
        )
    else:
        raise ConfigError(f"run.mode must be 'adaptive' or 'fixed', got {mode!r}")

    write_trajectory_csv(traj, out / outputs.get("trajectory", "trajectory.csv"))
    write_field(state, out / outputs.get("final_state", "final.field"))
    if traj.snapshots:
        index = ["index,t,file"]
        for i, (t, snap) in enumerate(traj.snapshots):
            fname = f"snapshot_{i:04d}.field"
            write_field(snap, out / fname)
            index.append(f"{i},{t!r},{fname}")
        (out / "snapshots.csv").write_text("\n".join(index) + "\n")
    print(
        f"run: {traj.n_accepted} accepted, {traj.n_rejected} rejected, "
        f"{traj.total_flow_evals} flow evals, wall {traj.wall_time:.3f}s"
    )
    return 0


def _cmd_converge(args) -> int:
    cfg, reg, prob, f0, ccfg, t0, t_end = _setup(args, "converge")
    subjects = ccfg.get("subjects") or [_require(ccfg, "subject", "converge")]
    hs = [float(h) for h in _require(ccfg, "hs", "converge")]
    norms = tuple(float(s) for s in ccfg.get("norms", [0.0]))
    what = tuple(ccfg.get("what", ("local", "global")))
    out = _out_dir(args)
    meta = _provenance(args, cfg)
    # the subjects share every fixed-step solve from f0 (reference ladders
    # above all); a memo hit returns the very state a fresh solve would
    solves = FixedSolves(prob, f0)
    for name in subjects:
        subject = reg.pairs.get(name) or reg.scheme(name)
        rep = convergence_study(
            prob, subject, f0, t0, t_end, hs, norms=norms, registry=reg, what=what,
            solves=solves,
        )
        write_convergence_csv(rep, out / f"convergence_{name.replace('*', 'adj')}.csv", meta)
        for s in rep.norms:
            print(
                f"converge {rep.name}: s={s:g} "
                f"local slope={rep.local_slopes.get(s, float('nan')):.3f} "
                f"global slope={rep.global_slopes.get(s, float('nan')):.3f}"
                + (" [exact]" if rep.exact else "")
            )
        if rep.est is not None:
            print(
                f"converge {rep.name}: est deviation slope="
                f"{rep.est_deviation_slope:.3f} controller local slope="
                f"{rep.ctrl_local_slope:.3f}"
            )
    return 0


def _cmd_compare(args) -> int:
    cfg, reg, prob, f0, ccfg, t0, t_end = _setup(args, "compare")
    pair = reg.pair(_require(ccfg, "pair", "compare"))
    base = dict(ccfg.get("control", {}))
    rows = []
    for tol in ccfg.get("tols", [base.get("tol", 1e-4)]):
        block = dict(base)
        block["tol"] = float(tol)
        row = efficiency_compare(
            prob, pair, f0, t0, t_end, _control_config(block),
            calibrate=bool(ccfg.get("calibrate", True)),
        )
        rows.append(row)
        print(
            f"compare {row.method} tol={row.tol:g}: adaptive {row.steps_adaptive} "
            f"vs equidistant {row.steps_equidist} steps "
            f"(ratio {row.step_ratio:.3f}, {row.n_rejected} rejected)"
        )
    out = _out_dir(args)
    write_efficiency_csv(rows, out / ccfg.get("out", "efficiency.csv"), _provenance(args, cfg))
    return 0


def _cmd_schemes(args) -> int:
    reg = _registry_from(args)
    print("schemes:")
    for name in sorted(reg.schemes):
        s = reg.schemes[name]
        flags = []
        if s.parabolic_safe:
            flags.append("parabolic-safe")
        if s.palindromic:
            flags.append("palindromic")
        if s.is_complex:
            flags.append("complex")
        tag = f" [{', '.join(flags)}]" if flags else ""
        print(f"  {name}: order {s.order}, arity {s.arity}, {s.s} stages, "
              f"{s.flow_evals} flows{tag}")
    print("pairs:")
    for name in sorted(reg.pairs):
        p = reg.pairs[name]
        extra = ""
        if p.kind == "embedded":
            extra = f", controller {p.controller.name}, shared prefix {p.shared_prefix_len}"
        elif p.kind == "milne":
            extra = f", partner {p.partner.name}, gamma {p.gamma}"
        print(f"  {name}: {p.kind} over {p.integrator.name} (order {p.order}){extra}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitstep",
        description="Adaptive operator-splitting integrators on the torus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        if config_required:
            p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--schemes", action="append", metavar="FILE",
                       help="extra scheme file; repeatable")
        p.add_argument("--out", help="output directory (default $SPLITSTEP_OUT or .)")
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility; every command runs serially")
        p.add_argument("--seed", type=int, help="seed for randomized initial data")

    common(sub.add_parser("run", help="single integration, trajectory CSV + snapshot"))
    common(sub.add_parser("converge", help="h-sweep with slope report"))
    common(sub.add_parser("compare", help="adaptive vs equidistant efficiency"))
    common(sub.add_parser("schemes", help="list registered schemes and pairs"),
           config_required=False)
    return parser


_HANDLERS = {
    "run": _cmd_run,
    "converge": _cmd_converge,
    "compare": _cmd_compare,
    "schemes": _cmd_schemes,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
