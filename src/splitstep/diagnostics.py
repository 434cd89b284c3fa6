"""Convergence, estimator-quality, efficiency and commutator diagnostics.

Error measurement conventions:

* Reference solutions extrapolate fixed-step runs of the registry's
  reference scheme (``strang``, or ``strang3`` for three operators).
  Both kinds, over the whole span and over one step, build one
  Richardson tableau, :func:`_ladder`, halving the step until two
  consecutive diagonal entries agree to the goal in every norm, or until
  the largest delta stops shrinking, which means roundoff, so the entry
  before is the reference.  The deltas of the entry used are reported as
  its floor.  A rung whose solve fails drops the rows so far and the
  halving goes on; a tableau that reaches no answer within its halvings
  raises :class:`ReferenceAccuracyError`.
* A convergence study's global reference starts at the finest subject
  step, so a strang subject's solves are its first rungs; its goal per
  norm is 1% of that solve's distance from the entry, floored at 1e-12
  of the entry's norm and at 1e-14.  Local errors compare one step
  S(h, u0) against a one-step reference from one substep, with one goal
  for every norm: 1% of the smallest quantity being measured (estimator
  deviations included), floored at 1e-12 of the entry's L2 norm and 1e-15.
* Convergence slopes are least-squares fits of log(error) against
  log(h).  Points within 10x of the reference floor are excluded from
  the fit; series whose every point sits at the floor are flagged exact.
* Fixed-step solves from the initial state go through a
  :class:`FixedSolves` memo, so studies of several subjects on one
  problem run each reference rung once.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace
from typing import Optional

import numpy as np

from .control import (
    StepControlConfig,
    _first_step,
    _span,
    calibrate_initial_step,
    integrate_adaptive,
    integrate_fixed,
)
from .estimators import estimate_step
from .exceptions import NumericalError, ReferenceAccuracyError
from .problems import GrayScottParams, SplitProblem, _gs_rhs_a, _gs_rhs_b, gs_commutator
from .schemes import (SchemePair, SchemeRegistry, SplittingScheme, builtin_registry,
                      compose_step, is_self_adjoint)
from .spectral import (Field, _as_is, _bool, _checked, _floats, _in_space, _integer, _positives,
                       _read, _read_only, _write_lines, sobolev_norm)

__all__ = [
    "FixedSolves",
    "reference_solution",
    "ConvergenceReport",
    "convergence_study",
    "fit_loglog",
    "EfficiencyRow",
    "efficiency_compare",
    "CommutatorReport",
    "commutator_check",
    "write_convergence_csv",
    "write_efficiency_csv",
]


_KINDS = ("local", "global")  # the error kinds a convergence study measures


def _err(a: Field, b: Field, s: float) -> float:
    return sobolev_norm(a - _in_space(b, a.space), s)


class FixedSolves:
    """Memo of fixed-step solves from one initial state of one problem.

    :meth:`run` calls :func:`integrate_fixed` once per distinct
    (scheme, t0, t_end, h) and hands out the final state read-only, so
    callers sharing a state cannot alter each other's results.  Every
    state stays held until the memo is dropped: make one per command and
    let it go with the command.  Not safe for concurrent use.
    """

    def __init__(self, prob: SplitProblem, f0: Field):
        self.prob = prob
        self.f0 = f0
        self._states = {}

    def run(self, scheme: SplittingScheme, t0: float, t_end: float, h: float) -> Field:
        key = (scheme, t0, t_end, h)
        state = self._states.get(key)
        if state is None:
            out, _ = integrate_fixed(self.prob, scheme, self.f0, t0, t_end, h)
            state = self._states[key] = _read_only(out)
        return state


def _solves_for(prob: SplitProblem, f0: Field, solves: Optional[FixedSolves]) -> FixedSolves:
    if solves is None:
        return FixedSolves(prob, f0)
    if solves.prob is not prob or solves.f0 is not f0:
        raise ValueError("the FixedSolves memo was made for another problem or initial state")
    return solves


def reference_solution(
    prob: SplitProblem,
    f0: Field,
    t0: float,
    t_end: float,
    scheme: Optional[SplittingScheme] = None,
    registry: Optional[SchemeRegistry] = None,
    h0: Optional[float] = None,
    target: Optional[dict] = None,
    norms=(0.0,),
    max_halvings: int = 16,
    solves: Optional[FixedSolves] = None,
):
    """Fixed-step reference, extrapolated over step halvings until
    self-consistency (:func:`_ladder`).

    ``target`` maps Sobolev index s to the acceptable floor; None means
    1e-10 relative to the solution norm.  Returns (state, info) with
    info = {"scheme", "h", "floor": {s: the rung's delta}}; the state is
    read-only: ``f0`` for an empty span (a backward or non-finite one is
    refused).  ``solves`` shares solves with callers from the same (prob, f0).
    ``max_halvings`` is an integer >= 0.
    """
    _read(_checked(_integer, lambda n: n >= 0, "an integer >= 0"), max_halvings, "max_halvings")
    if scheme is None:
        reg = registry if registry is not None else builtin_registry()
        scheme = reg.reference_scheme(arity=prob.arity)
    span = _span(t0, t_end)
    if span == 0:
        return f0, {"scheme": scheme.name, "h": 0.0, "floor": {s: 0.0 for s in norms}}
    solves = _solves_for(prob, f0, solves)

    def goals(cur):
        return {s: target[s] if target is not None and s in target
                else 1e-10 * max(sobolev_norm(cur, s), 1e-30) for s in norms}

    h, cur, floor = _ladder(solves, scheme, t0, t_end, h0 if h0 is not None else span / 64.0,
                            norms, goals, max_halvings)
    return cur, {"scheme": scheme.name, "h": h, "floor": floor}


def _ladder(solves, scheme, t0, t_end, h, norms, goals, n):
    """Richardson tableau over fixed-step solves through ``solves`` at h,
    h/2, ... (n halvings).

    Column j removes the error term of order p + 2(j-1) when ``scheme``
    is self-adjoint (its error expands in even powers of h), else of order
    p + j - 1.  A rung's deltas are the distance of its diagonal entry
    from the one before, per norm.  Returns (step, entry, deltas) of the
    first rung whose deltas all meet ``goals(entry)``; or, once the
    largest delta stops shrinking, of the rung before: roundoff.  A rung
    whose solve fails is unresolved, as a failed trial step is in
    ``control.step_adaptive``: the rows so far are dropped.  Halving is
    exact, so the steps are bitwise h/2^k and share memo keys with any
    other caller.  Extrapolated entries are read-only, and not memo
    states.
    """
    gain = 2 if is_self_adjoint(scheme) else 1
    row, last, deltas, failed = [], None, {}, None
    for k in range(n + 1):
        if k:
            h *= 0.5
        try:
            entry = solves.run(scheme, t0, t_end, h)
        except NumericalError as exc:
            row, last, deltas, failed = [], None, {}, exc
            continue
        new = [entry]
        for j, before in enumerate(row):
            weight = 1.0 / (2.0 ** (scheme.order + gain * j) - 1.0)
            entry = _read_only(entry + (entry - _in_space(before, entry.space)) * weight)
            new.append(entry)
        if row:
            deltas = {s: _err(entry, row[-1], s) for s in norms}
            if last is not None and max(deltas.values()) >= max(last[2].values()):
                return last
            bound = goals(entry)
            if all(deltas[s] <= bound[s] for s in norms):
                return h, entry, deltas
            last = (h, entry, deltas)
        row, failed = new, None
    raise ReferenceAccuracyError(
        f"reference with {scheme.name} over [{t0!r}, {t_end!r}] did not reach its goal "
        f"after {n} halvings (last delta {deltas})"
    ) from failed


def fit_loglog(hs, errs):
    """Least-squares slope of log(err) vs log(h); returns (slope, n_used)."""
    hs = np.asarray(hs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    mask = errs > 0
    if np.count_nonzero(mask) < 2:
        return float("nan"), int(np.count_nonzero(mask))
    slope = np.polyfit(np.log(hs[mask]), np.log(errs[mask]), 1)[0]
    return float(slope), int(np.count_nonzero(mask))


def _fit_above_floor(hs, errs, floor):
    """:func:`fit_loglog` over the errors more than 10x above ``floor``."""
    errs = np.asarray(errs, dtype=float)
    return fit_loglog(hs, np.where(errs > 10.0 * floor, errs, 0.0))


@dataclass
class ConvergenceReport:
    """Everything a dyadic h-sweep produced for one scheme or pair."""

    name: str
    hs: np.ndarray
    norms: tuple
    local: dict = dataclass_field(default_factory=dict)    # s -> errors
    global_: dict = dataclass_field(default_factory=dict)  # s -> errors
    est: Optional[np.ndarray] = None                       # estimator values
    est_true: Optional[np.ndarray] = None                  # true local L2 errors
    est_deviation: Optional[np.ndarray] = None
    ctrl_local: Optional[np.ndarray] = None                # controller local L2 errors
    local_slopes: dict = dataclass_field(default_factory=dict)
    global_slopes: dict = dataclass_field(default_factory=dict)
    est_deviation_slope: float = float("nan")
    ctrl_local_slope: float = float("nan")
    ref_floor: dict = dataclass_field(default_factory=dict)
    local_floor: dict = dataclass_field(default_factory=dict)
    exact: bool = False
    points_used: dict = dataclass_field(default_factory=dict)

    def slope(self, kind: str, s: float = 0.0) -> float:
        table = self.local_slopes if kind == "local" else self.global_slopes
        return table.get(s, float("nan"))


def convergence_study(
    prob: SplitProblem,
    subject,
    f0: Field,
    t0: float,
    t_end: float,
    hs,
    norms=(0.0,),
    registry: Optional[SchemeRegistry] = None,
    what=("local", "global"),
    solves: Optional[FixedSolves] = None,
) -> ConvergenceReport:
    """Dyadic h-sweep of local/global errors with slope fits.

    ``subject`` is a SplittingScheme or a SchemePair; pairs additionally
    record the estimator value, its deviation from the true local error
    and the controller's own local error.  ``solves`` is a
    :class:`FixedSolves` memo for (prob, f0) shared by the studies of
    several subjects; their fixed-step solves (global errors, references,
    one-step ladders) then run once.  Inputs it cannot measure (an empty
    span, hs or norms not distinct and finite, h <= 0 or s < 0, no kind,
    global errors at an h above the span) raise ConfigError before any solve.
    """
    hs, norms = _study_inputs(t0, t_end, hs, norms, what)
    solves = _solves_for(prob, f0, solves)
    pair = subject if isinstance(subject, SchemePair) else None
    scheme = pair.integrator if pair else subject
    reg = registry if registry is not None else builtin_registry()
    ref_scheme = reg.reference_scheme(arity=prob.arity)
    rep = ConvergenceReport(name=pair.name if pair else scheme.name, hs=hs, norms=norms)

    if "global" in what:
        # the tableau starts at the finest subject step, so a subject of the
        # reference scheme shares its solves; the relative floor keeps exact
        # splittings (error = roundoff) from demanding an unreachable reference
        fmin = solves.run(scheme, t0, t_end, hs[-1])

        def goals(cur):
            return {s: max(1e-2 * _err(fmin, cur, s), 1e-12 * sobolev_norm(cur, s), 1e-14)
                    for s in norms}

        _, ref_state, rep.ref_floor = _ladder(solves, ref_scheme, t0, t_end, hs[-1], norms,
                                              goals, 16)
        finals = [solves.run(scheme, t0, t_end, h) for h in hs]
        rep.global_ = {s: np.array([_err(fh, ref_state, s) for fh in finals]) for s in norms}

    if "local" in what:
        rep.local = {s: np.empty(len(hs)) for s in norms}
        if pair is not None:
            rep.est, rep.est_true, rep.est_deviation, rep.ctrl_local = np.empty((4, len(hs)))
        rep.local_floor = {s: 0.0 for s in norms}
        for i, h in enumerate(hs):
            # a pair's integrator value is the plain step S(h, f0), bitwise
            res = estimate_step(pair, prob, h, f0) if pair is not None else None
            u1 = res.u_next if res is not None else compose_step(scheme, prob, h, f0)
            ref1, deltas = _one_step_reference(solves, ref_scheme, t0, h, norms, u1, res)
            for s in norms:
                rep.local_floor[s] = max(rep.local_floor[s], deltas[s])
                rep.local[s][i] = _err(u1, ref1, s)
            if res is not None:
                true_l2 = rep.local[0.0][i] if 0.0 in norms else _err(u1, ref1, 0.0)
                rep.est[i] = res.est_norm
                rep.est_true[i] = true_l2
                rep.est_deviation[i] = abs(res.est_norm - true_l2)
                rep.ctrl_local[i] = _err(res.u_control, ref1, 0.0)
        if pair is not None:
            floor0 = rep.local_floor.get(0.0, 0.0)
            rep.est_deviation_slope = _fit_above_floor(hs, rep.est_deviation, floor0)[0]
            rep.ctrl_local_slope = _fit_above_floor(hs, rep.ctrl_local, floor0)[0]

    for kind, errors, slopes, floor in (
        ("local", rep.local, rep.local_slopes, rep.local_floor),
        ("global", rep.global_, rep.global_slopes, rep.ref_floor),
    ):
        for s, errs in errors.items():
            slopes[s], rep.points_used[(kind, s)] = _fit_above_floor(hs, errs, floor.get(s, 0.0))

    # exact-flow detection: every measured error at the floor
    floors = {**rep.ref_floor, **rep.local_floor}
    top = max(10.0 * max(floors.values()), 1e-13)
    rep.exact = all(np.all(errs <= top) for errs in [*rep.local.values(), *rep.global_.values()])
    return rep


_kinds = _checked(_as_is, lambda v: isinstance(v, (list, tuple, set, frozenset)) and v
                  and set(v) <= set(_KINDS), "'local' and/or 'global'")
_indices = _checked(_floats, lambda xs: xs and len(set(xs)) == len(xs)
                    and all(0 <= s < np.inf for s in xs), "distinct finite indices >= 0")


def _study_inputs(t0, t_end, hs, norms, what, where=""):
    """(hs in descending order, norms) of a study, as floats, or a ConfigError before any
    solve naming after ``where`` what it cannot measure: an empty span, no kind, a norm or a
    step given twice or out of range, or, for global errors, a step above the span."""
    span = _span(t0, t_end, where.rstrip(".") or "convergence_study")
    _read(_kinds, what, f"{where}what")
    norms = tuple(_read(_indices, norms, f"{where}norms"))
    fits = _checked(_positives, lambda xs: len(set(xs)) == len(xs) and not ("global" in what
                    and max(xs) > span), f"distinct steps, for global errors none above {span!r}")
    return np.asarray(sorted(_read(fits, hs, f"{where}hs"), reverse=True)), norms


def _one_step_reference(solves, ref_scheme, t0, h, norms, u1, res, max_halvings=10):
    """Reference over [t0, t0+h] from ``solves``: the :func:`_ladder` from
    one substep, resolved to 1% of the smallest quantity under study: the
    one-step errors per norm, and for pairs also the estimator deviation
    and the controller's local error.  Returns (state, deltas): the deltas
    of the returned rung are the floor the caller reports.
    """
    def goals(cur):
        needs = [_err(u1, cur, s) for s in norms]
        if res is not None:
            # for a pair, u1 is res.u_next: reuse its L2 error
            true_l2 = needs[norms.index(0.0)] if 0.0 in norms else _err(u1, cur, 0.0)
            needs.append(abs(res.est_norm - true_l2))
            needs.append(_err(res.u_control, cur, 0.0))
        # 1% of the smallest quantity measured, floored at 1e-12 of the
        # rung's L2 norm and at 1e-15; one goal shared by every norm
        goal = 1e-2 * max(min(needs), 1e-12 * sobolev_norm(cur, 0.0), 1e-15)
        return dict.fromkeys(norms, goal)

    _, cur, deltas = _ladder(solves, ref_scheme, t0, t0 + h, h, norms, goals, max_halvings)
    return cur, deltas


@dataclass(frozen=True)
class EfficiencyRow:
    """Adaptive-vs-equidistant work comparison at one tolerance."""

    method: str
    tol: float
    steps_adaptive: int
    steps_equidist: int
    time_adaptive: float
    time_equidist: float
    h_min: float
    n_rejected: int = 0

    @property
    def step_ratio(self) -> float:
        return self.steps_adaptive / self.steps_equidist


def efficiency_compare(
    prob: SplitProblem,
    pair: SchemePair,
    f0: Field,
    t0: float,
    t_end: float,
    cfg: StepControlConfig,
    calibrate: bool = True,
) -> EfficiencyRow:
    """Adaptive run versus equidistant run at the smallest accepted step.

    With ``calibrate`` (default) the initial step is settled onto the
    tolerance plateau first, from the step :func:`integrate_adaptive`
    would start with and with h_max capped at the span, so that no probe
    is a step the run cannot take and the startup ramp does not dominate
    the minimum.  The final clipped landing step is likewise excluded
    from the minimum.  The equidistant run uses the bare integrator.
    The flag ``calibrate`` and the (non-empty) span are read before any trial.
    """
    span = _span(t0, t_end, "efficiency_compare")  # refused before any calibration trial
    if _read(_bool, calibrate, "calibrate") and cfg.h_init is None:
        probe = replace(cfg, h_max=max(cfg.h_min, min(cfg.h_max, span)))
        h0 = _first_step(probe, pair, span)
        cfg = replace(cfg, h_init=calibrate_initial_step(prob, pair, f0, probe, h0=h0))
    _, traj = integrate_adaptive(prob, pair, f0, t0, t_end, cfg)
    acc = traj.accepted_steps()
    body = acc[:-1] if len(acc) > 1 else acc
    h_min = min(r.h for r in body)
    _, traj_eq = integrate_fixed(prob, pair.integrator, f0, t0, t_end, h_min)
    return EfficiencyRow(
        method=pair.name,
        tol=cfg.tol,
        steps_adaptive=len(acc),
        steps_equidist=len(traj_eq.records),
        time_adaptive=traj.wall_time,
        time_equidist=traj_eq.wall_time,
        h_min=h_min,
        n_rejected=traj.n_rejected,
    )


# ---------------------------------------------------------------------------
# Commutator check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CommutatorReport:
    value: Field
    fd_value: Field
    rel_difference: float
    eps: float


def commutator_check(f: Field, params: GrayScottParams, eps: float = 1e-3) -> CommutatorReport:
    """Validate the Gray-Scott commutator against finite differences.

    The Jacobian term B'(U)(A U) is replaced by the centered directional
    difference of the reaction along W = A(U), Richardson-extrapolated
    from eps and eps/2 (leaving an O(eps^4) defect); the operator term
    A(B(U)) is evaluated spectrally in both.  Reports the relative L2
    difference against the closed-form commutator.
    """
    com = gs_commutator(f, params)

    def fd_bracket(e: float) -> Field:
        w = _gs_rhs_a(f, params)
        plus = _gs_rhs_b(f + (e * w))
        minus = _gs_rhs_b(f - (e * w))
        jac_fd = (plus - minus) * (0.5 / e)
        return _gs_rhs_a(_gs_rhs_b(f), params) - jac_fd

    c1 = fd_bracket(eps)
    c2 = fd_bracket(eps / 2.0)
    richardson = (4.0 / 3.0) * c2 - (1.0 / 3.0) * c1
    rel = _err(com, richardson, 0.0) / max(sobolev_norm(com, 0.0), 1e-30)
    return CommutatorReport(value=com, fd_value=richardson, rel_difference=rel, eps=eps)


# ---------------------------------------------------------------------------
# CSV writers
# ---------------------------------------------------------------------------

def write_convergence_csv(report: ConvergenceReport, path, preamble: Optional[dict] = None):
    """series,s,h,value rows with slope summary in trailing comments."""
    # (series, s, values, slope or None): the rows and the slope lines both come from here
    series = [("local", s, v, report.local_slopes.get(s)) for s, v in report.local.items()]
    series += [("global", s, v, report.global_slopes.get(s)) for s, v in report.global_.items()]
    if report.est is not None:
        series += [("est", 0.0, report.est, None), ("est_true", 0.0, report.est_true, None),
                   ("est_deviation", 0.0, report.est_deviation, report.est_deviation_slope),
                   ("ctrl_local", 0.0, report.ctrl_local, report.ctrl_local_slope)]
    lines = ["series,s,h,value"]
    lines += [f"{name},{float(s)!r},{float(h)!r},{float(v)!r}"
              for name, s, values, _ in series for h, v in zip(report.hs, values)]
    lines += [f"# slope series={name} s={s!r} value={slope!r}"
              for name, s, _, slope in series if slope is not None]
    if report.exact:
        lines.append("# exact=1")
    _write_lines(path, lines, preamble)


def write_efficiency_csv(rows, path, preamble: Optional[dict] = None):
    _write_lines(path, ["method,tol,steps_adaptive,steps_equidist,time_adaptive,time_equidist"] + [
        f"{r.method},{r.tol!r},{r.steps_adaptive},{r.steps_equidist},"
        f"{r.time_adaptive:.6f},{r.time_equidist:.6f}"
        for r in rows
    ], preamble)
