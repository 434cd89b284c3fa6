"""Adaptive step-size control around the paired estimators.

The update rule for an accepted or rejected attempt with estimate est is

    h_new = h * min(alpha_max, max(alpha_min, (alpha*tol/est)^(1/(p+1)))),

with safety factor alpha = 0.9 and growth/shrink guards alpha_min = 0.25,
alpha_max = 4.0; est = 0 grows by alpha_max.  The result is clipped to
[h_min, h_max].  An attempt is rejected when est > reject_threshold*tol
and retried with the shrunken step; an attempt whose flows fail is
rejected too and retried with h*alpha_min, also in calibration.  Hitting
h_min while still failing aborts the run.  The step advances with the
integrator value S(h, u); local extrapolation (the control value) is opt-in.

Within a run, every step the controller proposes is rounded down to the
run's own geometric grid h0*2^(k/32), k an integer, and then clipped up to
h_min.  The anchor h0 is the run's first step, so the first step is h0
itself and a x4 growth or x1/4 shrink is exact (k +- 64).  The same steps
recur, so the operators' flow factors, cached per step, are reused.  The
final step is still clipped to land on t_end.  Neither
:func:`next_step_size`, the public update rule, nor the calibration rounds:
they know no anchor.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dataclass_field
from typing import Optional

import numpy as np

from .exceptions import ConfigError, NumericalError, ToleranceAbortError
from .estimators import estimate_step
from .problems import SplitProblem
from .schemes import SchemePair, SplittingScheme, compose_step
from .spectral import (Field, _as_is, _bool, _checked, _count, _number, _read, _real, _times,
                       _width, _write_lines)

__all__ = [
    "StepControlConfig",
    "StepRecord",
    "Trajectory",
    "next_step_size",
    "step_adaptive",
    "integrate_adaptive",
    "integrate_fixed",
    "calibrate_initial_step",
    "write_trajectory_csv",
]


_READERS = {  # one reader per field, each with its rule
    "tol": _width, "alpha": _checked(_number, lambda x: 0 < x <= 1, "a number in (0, 1]"),
    "alpha_min": _number, "alpha_max": _number, "order_p": _count, "h_init": _width,
    "h_min": _width, "h_max": _number, "local_extrapolation": _bool, "project_real": _bool,
    "norm": _checked(_as_is, lambda v: v in ("l2", "max"), "'l2' or 'max'"),
    "reject_threshold": _checked(_number, lambda x: x >= 1,
                                 "a number >= 1: below 1 rejects accepted-quality steps")}


@dataclass(frozen=True)
class StepControlConfig:
    """Tolerance and guard rails for adaptive stepping.

    ``order_p`` may be None, in which case the pair's integrator order
    is used.  ``h_init`` of None picks the crude default
    (t_end - t0) * tol^(1/(p+1)) at integration start.  Each field is read by
    its rule in ``_READERS``, a ConfigError naming the field; then the rules
    across fields: 0 < alpha_min < 1 < alpha_max < inf and h_min <= h_max.
    """

    tol: float
    alpha: float = 0.9
    alpha_min: float = 0.25
    alpha_max: float = 4.0
    order_p: Optional[int] = None
    h_init: Optional[float] = None
    h_min: float = 1e-12
    h_max: float = np.inf
    reject_threshold: float = 1.0
    norm: str = "l2"
    local_extrapolation: bool = False
    project_real: bool = False

    def __post_init__(self):
        for key, read in _READERS.items():  # order_p and h_init may be left unset (None)
            if getattr(self, key) is not None or key not in ("order_p", "h_init"):
                object.__setattr__(self, key, _read(read, getattr(self, key), key))
        if not 0 < self.alpha_min < 1 < self.alpha_max < np.inf:
            raise ConfigError("need 0 < alpha_min < 1 < alpha_max < inf")
        if not self.h_min <= self.h_max:
            raise ConfigError(f"need h_min <= h_max, got h_min={self.h_min}, h_max={self.h_max}")


@dataclass(frozen=True)
class StepRecord:
    """One attempted step: start time, trial h, estimate, verdict, work."""

    t: float
    h: float
    est: Optional[float]
    accepted: bool
    flow_evals: int


@dataclass
class Trajectory:
    """Attempt records, optional state snapshots, and run totals."""

    records: list = dataclass_field(default_factory=list)
    snapshots: list = dataclass_field(default_factory=list)
    wall_time: float = 0.0

    @property
    def n_accepted(self) -> int:
        return sum(1 for r in self.records if r.accepted)

    @property
    def n_rejected(self) -> int:
        return sum(1 for r in self.records if not r.accepted)

    @property
    def total_flow_evals(self) -> int:
        return sum(r.flow_evals for r in self.records)

    def accepted_steps(self) -> list:
        return [r for r in self.records if r.accepted]


_estimate = _checked(_number, lambda x: x >= 0, "a number >= 0 or inf")  # NaN too


def next_step_size(h: float, est: float, cfg: StepControlConfig, p: Optional[int] = None) -> float:
    """Elementary update (see the module docstring); ``p`` defaults to
    ``cfg.order_p``.  ``h``, ``est`` and ``p`` are read first: a refusal is
    a ConfigError that names the argument."""
    if p is None:
        p = cfg.order_p
    if p is None:
        raise ConfigError("order p unknown: set cfg.order_p or pass p")
    return _next_step(_read(_width, h, "h"), _read(_estimate, est, "est"), cfg,
                      _read(_count, p, "p"))


def _next_step(h: float, est: float, cfg: StepControlConfig, p: int) -> float:
    """:func:`next_step_size` on values already read."""
    if est <= 0.0:
        factor = cfg.alpha_max
    else:
        factor = (cfg.alpha * cfg.tol / est) ** (1.0 / (p + 1))
        factor = min(cfg.alpha_max, max(cfg.alpha_min, factor))
    return float(min(cfg.h_max, max(cfg.h_min, h * factor)))


def _abort_at_h_min(h: float, cfg: StepControlConfig, what: str, reason: str):
    """A rejected attempt at h_min cannot shrink further: abort the run."""
    if h <= cfg.h_min * (1.0 + 1e-12):
        raise ToleranceAbortError(f"{what} rejected with h=h_min={cfg.h_min:g} ({reason})")


def _order(cfg: StepControlConfig, pair: SchemePair) -> int:  # p of the update rule
    return cfg.order_p if cfg.order_p is not None else pair.order


_MANTISSAS = tuple(2.0 ** (j / 32) for j in range(32))  # the step grid's 2^(j/32)


class _Run:
    """What an adaptive run fixes once: its config, pair and order ``p``
    of the update rule, and the anchor ``h0`` of its step grid (None in
    calibration, whose steps are not rounded)."""

    __slots__ = ("cfg", "pair", "p", "h0")

    def __init__(self, cfg: StepControlConfig, pair: SchemePair, h0: Optional[float]):
        self.cfg, self.pair, self.p, self.h0 = cfg, pair, _order(cfg, pair), h0

    def next(self, h: float, est: float) -> float:
        """The update rule's step, rounded down to the grid, at least h_min."""
        h = _next_step(h, est, self.cfg, self.p)
        if self.h0 is None:
            return h
        k = math.floor(32 * math.log2(h / self.h0)) + 1  # the log's roundoff moves k by one at most
        while (on_grid := math.ldexp(self.h0 * _MANTISSAS[k % 32], k // 32)) > h:
            k -= 1  # h0 * 2^(k/32), computed so that the same k gives the same float
        return max(self.cfg.h_min, on_grid)


def _trial(prob: SplitProblem, run: _Run, h: float, f: Field, records: list,
           t: Optional[float] = None):
    """(estimate, h) of the first trial step from ``f`` whose flows do not
    fail: a failed one is a rejection (est None, 0 flows) retried at
    h*alpha_min, down to h_min.  ``t`` is None in calibration."""
    while True:
        try:
            return estimate_step(run.pair, prob, h, f, norm=run.cfg.norm), h
        except NumericalError as exc:
            records.append(StepRecord(t, h, None, False, 0))
            what = "calibration step" if t is None else f"step at t={t:g}"
            _abort_at_h_min(h, run.cfg, what, f"trial step failed: {exc}")
            h = run.next(h, np.inf)


def step_adaptive(prob: SplitProblem, pair: SchemePair, t: float, h: float,
                  f: Field, cfg: StepControlConfig):
    """Advance one accepted step, retrying with smaller h on rejection.

    Returns (state, t_new, h_next, records) where records holds every
    attempt including rejected ones.  A trial step whose flows fail is
    rejected too, with est None and 0 flow evaluations.  ``h``, which must
    be positive and finite, anchors the step grid that the retried and the
    returned steps lie on.
    """
    _read(_width, h, "h")  # NaN too; an infinite h is retried without end
    return _step(prob, _Run(cfg, pair, h), t, h, f)


def _step(prob: SplitProblem, run: _Run, t: float, h: float, f: Field):
    """:func:`step_adaptive` within ``run``, from a step already read."""
    cfg, records = run.cfg, []
    while True:
        res, h = _trial(prob, run, h, f, records, t)
        accepted = res.est_norm <= cfg.reject_threshold * cfg.tol
        records.append(StepRecord(t, h, res.est_norm, accepted, res.flow_evals))
        h_next = run.next(h, res.est_norm)
        if accepted:
            out = res.u_control if cfg.local_extrapolation else res.u_next
            return _real(out) if cfg.project_real else out, t + h, h_next, records
        _abort_at_h_min(h, cfg, f"step at t={t:g}", f"est={res.est_norm:.3e} > tol={cfg.tol:g}")
        h = h_next


def _span(t0: float, t_end: float, who: Optional[str] = None) -> float:
    """t_end - t0, refused unless both ends are finite and t_end >= t0; a caller
    that names itself ``who`` measures the span, so it refuses an empty one too."""
    if who is not None and not t_end > t0:  # NaN too
        raise ConfigError(f"{who}: t_end={t_end!r} must exceed t0={t0!r}")
    if not (np.isfinite(t0) and np.isfinite(t_end) and t_end >= t0):
        raise ConfigError(f"need finite t0 <= t_end, got t0={t0}, t_end={t_end}")
    return t_end - t0


def _first_step(cfg: StepControlConfig, pair: SchemePair, span: float) -> float:
    """:func:`integrate_adaptive`'s first step: ``cfg.h_init`` or span *
    tol^(1/(p+1)), at most the span, clipped to [h_min, h_max]."""
    h = cfg.h_init if cfg.h_init is not None else span * cfg.tol ** (1.0 / (_order(cfg, pair) + 1))
    return float(min(cfg.h_max, max(cfg.h_min, min(h, span))))


def integrate_adaptive(prob: SplitProblem, pair: SchemePair, f0: Field,
                       t0: float, t_end: float, cfg: StepControlConfig,
                       snapshot_every: Optional[int] = None,
                       snapshot_times=None):
    """Adaptive integration from t0 to t_end; returns (state, Trajectory).

    The final step is clipped to land on t_end exactly.  Snapshots are
    taken every ``snapshot_every``-th accepted step and/or at the first
    accepted time past each entry of ``snapshot_times``.
    """
    span = _span(t0, t_end)
    if snapshot_every is not None:  # n_acc % snapshot_every: only n >= 1 picks every n-th step
        _read(_count, snapshot_every, "snapshot_every")
    # a NaN would sort first and never come due, holding back every later time
    pending = sorted(_read(_times, [] if snapshot_times is None else snapshot_times,
                           "snapshot_times"))
    traj = Trajectory()
    if t_end == t0:
        return f0, traj
    start = time.perf_counter()
    h = _first_step(cfg, pair, span)
    run = _Run(cfg, pair, h)
    t, f = t0, f0
    n_acc = 0
    while t < t_end:
        f, t, h, recs = _step(prob, run, t, min(h, t_end - t), f)
        traj.records.extend(recs)
        if t_end - t <= 1e-14 * span:
            t = t_end
        n_acc += 1
        want = snapshot_every is not None and n_acc % snapshot_every == 0
        while pending and pending[0] <= t:
            pending.pop(0)
            want = True
        if want:
            traj.snapshots.append((t, f))
    traj.wall_time = time.perf_counter() - start
    return f, traj


def integrate_fixed(prob: SplitProblem, scheme: SplittingScheme, f0: Field,
                    t0: float, t_end: float, h: float):
    """Equidistant run with the bare scheme; the last step is clipped.

    Records carry est=None (no estimator runs).  Returns
    (state, Trajectory).
    """
    span = _span(t0, t_end)
    _read(_width, h, "h")  # NaN too, and an infinite h would step once
    traj = Trajectory()
    if t_end == t0:
        return f0, traj
    start = time.perf_counter()
    n_steps = max(1, int(np.ceil(span / h - 1e-9)))
    t, f = t0, f0
    for i in range(n_steps):
        h_i = min(h, t_end - t) if i == n_steps - 1 else h
        f = compose_step(scheme, prob, h_i, f)
        traj.records.append(StepRecord(t, h_i, None, True, scheme.flow_evals))
        t = t + h_i
    traj.wall_time = time.perf_counter() - start
    return f, traj


def calibrate_initial_step(prob: SplitProblem, pair: SchemePair, f0: Field,
                           cfg: StepControlConfig, h0: float, iters: int = 3) -> float:
    """Settle h near the tolerance plateau by iterating the update rule.

    Runs ``iters`` estimate/update rounds from h0 without advancing the
    state; useful when the startup transient should be excluded.  A trial
    step whose flows fail (stiff flows probed far beyond their stability
    range) is rejected as in :func:`step_adaptive`, down to h_min.  An h0
    that is not positive and finite, or ``iters`` that is not a positive
    integer, is a ConfigError before any round.
    """
    _read(_width, h0, "h0")
    _read(_count, iters, "iters")
    run = _Run(cfg, pair, None)
    h = h0
    for _ in range(iters):
        res, h = _trial(prob, run, h, f0, [])
        h = run.next(h, res.est_norm)
    return h


def _fmt(x) -> str:
    return "" if x is None else repr(float(x))


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write one row per attempt: t,h,est,accepted,flow_evals."""
    _write_lines(path, ["t,h,est,accepted,flow_evals"] + [
        f"{r.t!r},{r.h!r},{_fmt(r.est)},{int(r.accepted)},{r.flow_evals}" for r in traj.records
    ])
