"""Adaptive step-size control around the paired estimators.

The update rule for an accepted or rejected attempt with estimate est is

    h_new = h * min(alpha_max, max(alpha_min, (alpha*tol/est)^(1/(p+1)))),

with safety factor alpha = 0.9 and growth/shrink guards alpha_min = 0.25,
alpha_max = 4.0; est = 0 grows by alpha_max.  The result is clipped to
[h_min, h_max].  An attempt is rejected when est > reject_threshold*tol
and retried with the shrunken step; an attempt whose flows fail is
rejected too and retried with h*alpha_min.  Hitting h_min while still
failing aborts the run.  The step advances with the integrator value S(h, u);
advancing with the control value (local extrapolation) is opt-in.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dataclass_field
from typing import Optional

import numpy as np

from .exceptions import ConfigError, NumericalError, ToleranceAbortError
from .estimators import estimate_step
from .problems import SplitProblem
from .schemes import SchemePair, SplittingScheme, compose_step
from .spectral import Field, to_nodal

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


@dataclass(frozen=True)
class StepControlConfig:
    """Tolerance and guard rails for adaptive stepping.

    ``order_p`` may be None, in which case the pair's integrator order
    is used.  ``h_init`` of None picks the crude default
    (t_end - t0) * tol^(1/(p+1)) at integration start.
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
        if not self.tol > 0:
            raise ConfigError(f"tol must be positive, got {self.tol}")
        if not 0 < self.alpha <= 1:
            raise ConfigError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not 0 < self.alpha_min < 1 < self.alpha_max:
            raise ConfigError("need 0 < alpha_min < 1 < alpha_max")
        if not 0 < self.h_min <= self.h_max:
            raise ConfigError("need 0 < h_min <= h_max")
        if self.reject_threshold < 1.0:
            raise ConfigError("reject_threshold below 1 would reject accepted-quality steps")


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


def next_step_size(h: float, est: float, cfg: StepControlConfig, p: Optional[int] = None) -> float:
    """Elementary update; see the module docstring for the formula."""
    if p is None:
        p = cfg.order_p
    if p is None:
        raise ConfigError("order p unknown: set cfg.order_p or pass p")
    if est <= 0.0:
        factor = cfg.alpha_max
    else:
        factor = (cfg.alpha * cfg.tol / est) ** (1.0 / (p + 1))
        factor = min(cfg.alpha_max, max(cfg.alpha_min, factor))
    return float(min(cfg.h_max, max(cfg.h_min, h * factor)))


def _finish(state: Field, cfg: StepControlConfig) -> Field:
    if cfg.project_real:
        # project in physical space; zeroing modal imaginary parts would
        # break the Hermitian symmetry of real fields instead
        nod = to_nodal(state)
        return Field(nod.grid, nod.data.real.astype(np.complex128), nod.space)
    return state


def step_adaptive(prob: SplitProblem, pair: SchemePair, t: float, h: float,
                  f: Field, cfg: StepControlConfig):
    """Advance one accepted step, retrying with smaller h on rejection.

    Returns (state, t_new, h_next, records) where records holds every
    attempt including rejected ones.  A trial step whose flows fail is
    rejected too, with est None and 0 flow evaluations.
    """
    p = cfg.order_p if cfg.order_p is not None else pair.order
    records = []
    while True:
        try:
            res = estimate_step(pair, prob, h, f, norm=cfg.norm)
        except NumericalError as exc:
            # the trial state is discarded either way; shrink as for est = inf
            records.append(StepRecord(t, h, None, False, 0))
            reason = f"trial step failed: {exc}"
            h_next = next_step_size(h, np.inf, cfg, p)
        else:
            accepted = res.est_norm <= cfg.reject_threshold * cfg.tol
            records.append(StepRecord(t, h, res.est_norm, accepted, res.flow_evals))
            h_next = next_step_size(h, res.est_norm, cfg, p)
            if accepted:
                out = res.u_control if cfg.local_extrapolation else res.u_next
                return _finish(out, cfg), t + h, h_next, records
            reason = f"est={res.est_norm:.3e} > tol={cfg.tol:g}"
        if h <= cfg.h_min * (1.0 + 1e-12):
            raise ToleranceAbortError(
                f"step at t={t:g} rejected with h=h_min={cfg.h_min:g} ({reason})"
            )
        h = h_next


def _default_h_init(cfg: StepControlConfig, p: int, span: float) -> float:
    if cfg.h_init is not None:
        return cfg.h_init
    return span * cfg.tol ** (1.0 / (p + 1))


def integrate_adaptive(prob: SplitProblem, pair: SchemePair, f0: Field,
                       t0: float, t_end: float, cfg: StepControlConfig,
                       snapshot_every: Optional[int] = None,
                       snapshot_times=None):
    """Adaptive integration from t0 to t_end; returns (state, Trajectory).

    The final step is clipped to land on t_end exactly.  Snapshots are
    taken every ``snapshot_every``-th accepted step and/or at the first
    accepted time past each entry of ``snapshot_times``.
    """
    if t_end < t0:
        raise ConfigError(f"t_end={t_end} before t0={t0}")
    traj = Trajectory()
    if t_end == t0:
        return f0, traj
    start = time.perf_counter()
    p = cfg.order_p if cfg.order_p is not None else pair.order
    span = t_end - t0
    h = min(_default_h_init(cfg, p, span), span)
    h = float(min(cfg.h_max, max(cfg.h_min, h)))
    pending = sorted(snapshot_times) if snapshot_times else []
    t, f = t0, f0
    n_acc = 0
    while t < t_end:
        h_try = min(h, t_end - t)
        f, t, h, recs = step_adaptive(prob, pair, t, h_try, f, cfg)
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
    if t_end < t0:
        raise ConfigError(f"t_end={t_end} before t0={t0}")
    if h <= 0:
        raise ConfigError(f"h must be positive, got {h}")
    traj = Trajectory()
    if t_end == t0:
        return f0, traj
    start = time.perf_counter()
    span = t_end - t0
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
    step that blows up (stiff flows probed far beyond their stability
    range) is retried at half the step.
    """
    p = cfg.order_p if cfg.order_p is not None else pair.order
    h = h0
    for _ in range(iters):
        for _ in range(60):
            try:
                est = estimate_step(pair, prob, h, f0, norm=cfg.norm).est_norm
                break
            except NumericalError:
                h = 0.5 * h
                if h < cfg.h_min:
                    raise
        h = next_step_size(h, est, cfg, p)
    return h


def _fmt(x) -> str:
    return "" if x is None else repr(float(x))


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write one row per attempt: t,h,est,accepted,flow_evals."""
    lines = ["t,h,est,accepted,flow_evals"]
    for r in traj.records:
        lines.append(f"{r.t!r},{r.h!r},{_fmt(r.est)},{int(r.accepted)},{r.flow_evals}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
