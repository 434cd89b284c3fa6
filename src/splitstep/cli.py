"""Command-line front end.

Subcommands::

    splitstep run      --config cfg.json [--schemes extra.json ...] [--out DIR] [--seed N]
    splitstep converge --config cfg.json [...]
    splitstep compare  --config cfg.json [...]
    splitstep schemes  [--schemes extra.json ...]

The config is a single JSON file with a "problem" block plus one block
per subcommand; see the README for the full schema.  Every value is read
through ``spectral._value`` as in scheme files, each number, integer and
flag by ``_number``, ``_integer`` or ``_bool``, and every block refuses
the keys it does not read through ``spectral._only`` (a control block reads
the fields of ``StepControlConfig``), all before any solve; the problems and
the keys each takes live in one table, ``_PROBLEMS``, and the keys of each
run mode in ``_RUN_MODES``.  Each subcommand takes only the flags it reads.  Exit
codes are a stable contract: 0 success, 2 configuration/input errors, 3
numerical failures.  Outputs land in --out (or $SPLITSTEP_OUT, default ".").
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
from dataclasses import fields
from pathlib import Path

import numpy as np

from .control import (StepControlConfig, _span, integrate_adaptive, integrate_fixed,
                      write_trajectory_csv)
from .diagnostics import (
    _KINDS,
    FixedSolves,
    _study_inputs,
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
from .spectral import (TorusGrid, _as_is, _bool, _checked, _count, _number, _only, _positives,
                       _read, _read_object, _real, _times, _value, _width, _write_lines,
                       write_field)

__all__ = ["main"]


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


# Every command reads its values through _block and _value before any
# solve starts, so a malformed value exits 2 and names its block and key;
# errors raised later, inside the numerical run, are not translated.
def _block(cfg: dict, name: str) -> dict:
    try:
        block = cfg[name]
    except KeyError:
        raise ConfigError(f"config: missing {name!r} block") from None
    if not isinstance(block, dict):
        raise ConfigError(f"config: {name!r} block must be an object, got {block!r}")
    return block


# JSON types are kept: dict() takes a list of pairs
_object = _checked(_as_is, lambda v: isinstance(v, dict), "an object")
_strings = _checked(_as_is, lambda v: isinstance(v, list)
                    and all(isinstance(x, str) for x in v), "a list of strings")
_finite = _checked(_number, np.isfinite, "a finite number")
_positive = _checked(_number, lambda x: x > 0, "a positive number")


def _each(read):
    """An object whose every value ``read`` reads; a refusal names its key."""
    return lambda v: {key: _read(read, x, key) for key, x in _object(v).items()}


def _params(cls):
    return lambda v: cls(**_each(_number)(v))


# Each problem's factory, by its name in this module, and one reader per
# key it takes besides _COMMON_KEYS.  The factory is looked up when a
# problem is built, so a wrapper set on this module is the one called; a
# key left out keeps the factory's default, and any other key is refused.
_COMMON_KEYS = {"name", "dim", "a", "n", "initial", "initial_args"}
_PROBLEMS = {
    "gray_scott": ("gray_scott_problem", {
        "params": _params(GrayScottParams), "rk4_substep": _positive, "dealias": _bool}),
    "gray_scott_abc": ("gray_scott_abc_problem", {
        "params": _params(GrayScottParams), "dealias": _bool}),
    "van_der_pol": ("van_der_pol_problem", {"params": _params(VdpParams)}),
    "linear": ("linear_problem", {"diffusion": _number}),
}


def _build_problem(cfg: dict, seed=None):
    pcfg = _block(cfg, "problem")
    name = _value(pcfg, "problem", "name", str)
    if name not in _PROBLEMS:
        raise ConfigError(f"unknown problem {name!r}; available: {sorted(_PROBLEMS)}")
    factory, readers = _PROBLEMS[name]
    _only(pcfg, f"problem: {name!r}", _COMMON_KEYS | set(readers))
    try:
        grid = TorusGrid(
            dim=_value(pcfg, "problem", "dim", _count, 1),
            a=_value(pcfg, "problem", "a", _width, np.pi),
            n=_value(pcfg, "problem", "n", _count, 64),
        )
        prob = globals()[factory](grid, **{
            key: _value(pcfg, "problem", key, read) for key, read in readers.items()
            if key in pcfg})
        # an integer argument (a seed, a component count) stays an integer
        ic_args = _value(pcfg, "problem", "initial_args",
                         _each(lambda v: v if type(v) is int else _number(v)), {})
        if seed is not None:
            ic_args["seed"] = seed
        f0 = initial_condition(_value(pcfg, "problem", "initial", str, "gs_bump"),
                               grid, **ic_args)
    except (RepresentationError, TypeError, ValueError, OverflowError) as exc:
        # bad grid dims, unknown preset or its arguments (a negative seed): user input
        raise ConfigError(f"problem block: {exc}") from exc
    if f0.m != prob.m:
        raise ConfigError(f"initial condition has {f0.m} components, problem needs {prob.m}")
    if not f0.data.imag.any():
        # a real state runs in the real layout for as long as the words applied to it are real
        f0 = _real(f0)
    return prob, f0


def _control_config(block: dict, where: str) -> StepControlConfig:
    _only(block, where, {f.name for f in fields(StepControlConfig)})
    _value(block, where, "tol", _as_is)  # required; StepControlConfig reads it
    return _read(lambda b: StepControlConfig(**b), block, where)


def _setup(args, command: str, keys):
    """Config, registry, problem, initial state, the command's block, t0 and t_end.

    The block takes ``t0``, ``t_end`` and ``keys``, and refuses any other key.
    """
    cfg = _read_object(args.config, ConfigError, "config")
    reg = _registry_from(args)
    prob, f0 = _build_problem(cfg, seed=args.seed)
    block = _block(cfg, command)
    _only(block, command, {"t0", "t_end", *keys})
    t0 = _value(block, command, "t0", _finite, 0.0)
    t_end = _value(block, command, "t_end", _finite)
    return cfg, reg, prob, f0, block, t0, t_end


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("SPLITSTEP_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


# the keys each run mode reads besides t0, t_end, mode and outputs
_RUN_MODES = {
    "adaptive": ("pair", "control", "snapshot_every", "snapshot_times"),
    "fixed": ("scheme", "h"),
}
_mode = _checked(_as_is, lambda v: isinstance(v, str) and v in _RUN_MODES,
                 "'adaptive' or 'fixed'")


def _cmd_run(args) -> int:
    cfg, reg, prob, f0, rcfg, t0, t_end = _setup(
        args, "run", ("mode", "outputs", *_RUN_MODES["adaptive"], *_RUN_MODES["fixed"]))
    mode = _value(rcfg, "run", "mode", _mode, "adaptive")
    # a mode refuses the other's keys: a fixed run takes no snapshots
    _only(rcfg, f"run: {mode!r} mode", {"t0", "t_end", "mode", "outputs", *_RUN_MODES[mode]})
    out = _out_dir(args)
    outputs = _value(rcfg, "run", "outputs", _object, {})
    _only(outputs, "run.outputs", ("trajectory", "final_state"))
    traj_file = _value(outputs, "run.outputs", "trajectory", os.fspath, "trajectory.csv")
    final_file = _value(outputs, "run.outputs", "final_state", os.fspath, "final.field")
    if mode == "adaptive":
        pair = reg.pair(_value(rcfg, "run", "pair", str))
        ctrl = _control_config(_value(rcfg, "run", "control", _object, {}), "run.control")
        state, traj = integrate_adaptive(
            prob, pair, f0, t0, t_end, ctrl,
            snapshot_every=_value(rcfg, "run", "snapshot_every", _count, None),
            snapshot_times=_value(rcfg, "run", "snapshot_times", _times, None),
        )
    else:
        scheme = reg.scheme(_value(rcfg, "run", "scheme", str))
        state, traj = integrate_fixed(prob, scheme, f0, t0, t_end,
                                      _value(rcfg, "run", "h", _width))

    write_trajectory_csv(traj, out / traj_file)
    write_field(state, out / final_file)
    if traj.snapshots:
        index = ["index,t,file"]
        for i, (t, snap) in enumerate(traj.snapshots):
            fname = f"snapshot_{i:04d}.field"
            write_field(snap, out / fname)
            index.append(f"{i},{t!r},{fname}")
        _write_lines(out / "snapshots.csv", index)
    print(
        f"run: {traj.n_accepted} accepted, {traj.n_rejected} rejected, "
        f"{traj.total_flow_evals} flow evals, wall {traj.wall_time:.3f}s"
    )
    return 0


def _cmd_converge(args) -> int:
    cfg, reg, prob, f0, ccfg, t0, t_end = _setup(
        args, "converge", ("subjects", "subject", "hs", "norms", "what"))
    names = (_value(ccfg, "converge", "subjects", _strings, None)
             or [_value(ccfg, "converge", "subject", str)])
    subjects = [(name, reg.pairs.get(name) or reg.scheme(name)) for name in names]
    what = _value(ccfg, "converge", "what", _as_is, _KINDS)
    hs, norms = _study_inputs(t0, t_end, _value(ccfg, "converge", "hs", _as_is),  # before any solve
                              _value(ccfg, "converge", "norms", _as_is, [0.0]), what, "converge.")
    out = _out_dir(args)
    meta = _provenance(args, cfg)
    # the subjects share every fixed-step solve from f0 (reference ladders
    # above all); a memo hit returns the very state a fresh solve would
    solves = FixedSolves(prob, f0)
    for name, subject in subjects:
        rep = convergence_study(
            prob, subject, f0, t0, t_end, hs, norms=norms, registry=reg, what=what,
            solves=solves,
        )
        write_convergence_csv(rep, out / f"convergence_{name.replace('*', 'adj')}.csv", meta)
        for s in rep.norms:
            print(f"converge {rep.name}: s={s:g} local slope={rep.slope('local', s):.3f} "
                  f"global slope={rep.slope('global', s):.3f}" + (" [exact]" if rep.exact else ""))
        if rep.est is not None:
            print(f"converge {rep.name}: est deviation slope={rep.est_deviation_slope:.3f} "
                  f"controller local slope={rep.ctrl_local_slope:.3f}")
    return 0


def _cmd_compare(args) -> int:
    cfg, reg, prob, f0, ccfg, t0, t_end = _setup(
        args, "compare", ("pair", "control", "tols", "out", "calibrate"))
    pair = reg.pair(_value(ccfg, "compare", "pair", str))
    _span(t0, t_end, "compare")  # before any solve, named after the block as converge's is
    base = _value(ccfg, "compare", "control", _object, {})
    tols = _value(ccfg, "compare", "tols", _positives, None) or [base.get("tol", 1e-4)]
    ctrls = [_control_config({**base, "tol": tol}, "compare.control") for tol in tols]
    out_file = _value(ccfg, "compare", "out", os.fspath, "efficiency.csv")
    calibrate = _value(ccfg, "compare", "calibrate", _bool, True)
    rows = []
    for ctrl in ctrls:
        row = efficiency_compare(prob, pair, f0, t0, t_end, ctrl, calibrate=calibrate)
        rows.append(row)
        print(
            f"compare {row.method} tol={row.tol:g}: adaptive {row.steps_adaptive} "
            f"vs equidistant {row.steps_equidist} steps "
            f"(ratio {row.step_ratio:.3f}, {row.n_rejected} rejected)"
        )
    out = _out_dir(args)
    write_efficiency_csv(rows, out / out_file, _provenance(args, cfg))
    return 0


def _cmd_schemes(args) -> int:
    reg = _registry_from(args)
    for title, entries in (("schemes", reg.schemes), ("pairs", reg.pairs)):
        print(f"{title}:", *(f"  {entries[name]}" for name in sorted(entries)), sep="\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitstep",
        description="Adaptive operator-splitting integrators on the torus",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, text in (
            ("run", _cmd_run, "single integration, trajectory CSV + snapshot"),
            ("converge", _cmd_converge, "h-sweep with slope report"),
            ("compare", _cmd_compare, "adaptive vs equidistant efficiency"),
            ("schemes", _cmd_schemes, "list registered schemes and pairs")):
        p = sub.add_parser(name, help=text)
        p.set_defaults(handler=handler)
        p.add_argument("--schemes", action="append", metavar="FILE",
                       help="extra scheme file; repeatable")
        if handler is not _cmd_schemes:  # the commands that solve from a config
            p.add_argument("--config", required=True, help="JSON config file")
            p.add_argument("--out", help="output directory (default $SPLITSTEP_OUT or .)")
            p.add_argument("--seed", type=int, help="seed for randomized initial data")
    return parser


def _steady_heap() -> None:
    """Pin glibc's mmap and trim thresholds at its dynamic rule's ceilings (mallopt(3)), so
    freed 2D temporaries stay on the heap, not trimmed and faulted back in every step."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no C library, symbol or dlopen(NULL)
        return
    if mallopt(-3, 32 << 20):  # M_MMAP_THRESHOLD; refused above the C library's ceiling
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD, alone worse than neither


def main(argv=None) -> int:
    _steady_heap()  # a CLI process only: library callers keep their allocator
    args = build_parser().parse_args(argv)
    try:
        code = args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
