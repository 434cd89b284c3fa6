"""Step-size controller, adaptive/fixed drivers, trajectory output."""

import math
import re
import sys

import numpy as np
import pytest

from splitstep import (
    BlowUpError,
    ConfigError,
    Field,
    SplitProblem,
    StepControlConfig,
    ToleranceAbortError,
    TorusGrid,
    UnstableStepError,
    VdpParams,
    builtin_registry,
    calibrate_initial_step,
    compose_step,
    estimate_step,
    gray_scott_problem,
    initial_condition,
    integrate_adaptive,
    integrate_fixed,
    linear_problem,
    next_step_size,
    step_adaptive,
    to_nodal,
    van_der_pol_problem,
    write_trajectory_csv,
)
from splitstep import problems, spectral

REG = builtin_registry()
GRID = TorusGrid(1, 1.0, 16)


def lin_prob():
    return linear_problem(GRID, diffusion=0.2, potential=lambda x: np.cos(np.pi * x))


def lin_state():
    return initial_condition("random_smooth", GRID, m=1, seed=42)


# ---------------------------------------------------------------------------
# update rule


def test_update_rule_worked_example():
    # h = 0.1, tol = 1e-5, est = 1.6e-4, p = 3:
    # factor = (0.9e-5/1.6e-4)^(1/4) = 0.487..., h_new = 0.0487
    cfg = StepControlConfig(tol=1e-5)
    got = next_step_size(0.1, 1.6e-4, cfg, p=3)
    assert got == pytest.approx(0.1 * (0.9 * 1e-5 / 1.6e-4) ** 0.25, rel=1e-15)
    assert got == pytest.approx(0.0487, abs=5e-5)


def test_update_rule_fixed_point():
    # est = alpha*tol makes the growth factor exactly 1: h is a fixed point
    cfg = StepControlConfig(tol=1e-5)
    for p in (1, 2, 3):
        assert next_step_size(0.1, cfg.alpha * cfg.tol, cfg, p=p) == 0.1


def test_update_rule_zero_estimate_grows_by_alpha_max():
    cfg = StepControlConfig(tol=1e-5)
    assert next_step_size(0.1, 0.0, cfg, p=1) == pytest.approx(0.4)


def test_update_rule_clamps():
    cfg = StepControlConfig(tol=1e-5)
    # monstrous estimate: shrink is floored at alpha_min
    assert next_step_size(0.1, 1e10, cfg, p=1) == pytest.approx(0.025)
    # vanishing estimate: growth is capped at alpha_max
    assert next_step_size(0.1, 1e-30, cfg, p=1) == pytest.approx(0.4)


def test_update_rule_h_bounds():
    cfg = StepControlConfig(tol=1e-5, h_min=0.05, h_max=0.2)
    assert next_step_size(0.1, 1e10, cfg, p=1) == pytest.approx(0.05)
    assert next_step_size(0.1, 0.0, cfg, p=1) == pytest.approx(0.2)


def test_update_rule_requires_order():
    cfg = StepControlConfig(tol=1e-5)
    with pytest.raises(ConfigError):
        next_step_size(0.1, 1e-6, cfg)
    cfg2 = StepControlConfig(tol=1e-5, order_p=1)
    assert next_step_size(0.1, 1e-6, cfg2) == next_step_size(0.1, 1e-6, cfg, p=1)
    # p is read as cfg.order_p is
    for p, want in ((-1, "a positive integer"), (0, "a positive integer"),
                    ("2", "an integer"), (1.5, "an integer"), (True, "an integer")):
        with pytest.raises(ConfigError, match=f"^p: expected {want}, got {p!r}$"):
            next_step_size(0.1, 1e-6, cfg, p=p)


@pytest.mark.parametrize("h, est, refused", [
    (-1.0, 1e-6, "h: expected a positive finite number, got -1.0"),
    (np.nan, 1e-6, "h: expected a positive finite number, got nan"),
    ("0.1", 1e-6, "h: expected a number, got '0.1'"),
    (0.1, -1.0, "est: expected a number >= 0 or inf, got -1.0"),
    (0.1, np.nan, "est: expected a number >= 0 or inf, got nan"),
])
def test_update_rule_reads_h_and_est(h, est, refused):
    # -1.0 and NaN returned h_min, "0.1" raised TypeError, and est -1.0 grew h by alpha_max
    cfg = StepControlConfig(tol=1e-5)
    with pytest.raises(ConfigError, match=f"^{re.escape(refused)}$"):
        next_step_size(h, est, cfg, p=1)
    assert next_step_size(0.1, np.inf, cfg, p=1) == 0.1 * cfg.alpha_min  # a failed trial


def test_config_validation():
    with pytest.raises(ConfigError):
        StepControlConfig(tol=0.0)
    with pytest.raises(ConfigError):
        StepControlConfig(tol=1e-5, alpha=1.5)
    with pytest.raises(ConfigError):
        StepControlConfig(tol=1e-5, alpha_min=2.0)
    with pytest.raises(ConfigError):
        StepControlConfig(tol=1e-5, h_min=1.0, h_max=0.5)
    with pytest.raises(ConfigError):
        StepControlConfig(tol=1e-5, reject_threshold=0.5)
    with pytest.raises(ConfigError, match="tol"):
        StepControlConfig(tol=np.inf)
    # infinite step bounds and growth guard are refused, not run
    with pytest.raises(ConfigError, match="h_min"):
        StepControlConfig(tol=1e-5, h_min=np.inf)
    with pytest.raises(ConfigError, match="h_init"):
        StepControlConfig(tol=1e-5, h_init=np.inf)
    with pytest.raises(ConfigError, match="alpha_max"):
        StepControlConfig(tol=1e-5, alpha_max=np.inf)


@pytest.mark.parametrize("key", ["tol", "alpha", "alpha_min", "alpha_max", "order_p",
                                 "h_init", "h_min", "h_max", "reject_threshold"])
def test_config_refuses_nan_in_every_numeric_field(key):
    # a NaN reject_threshold would reject every attempt while the estimates
    # grow h, so the run would never reach h_min and never end
    with pytest.raises(ConfigError):
        StepControlConfig(**{"tol": 1e-5, key: np.nan})


# ---------------------------------------------------------------------------
# single adaptive step


def test_step_adaptive_accepts_when_estimate_fits():
    prob, f = lin_prob(), lin_state()
    cfg = StepControlConfig(tol=1e-4)
    f1, t1, h_next, recs = step_adaptive(prob, REG.pair("lie-avg"), 0.0, 1e-3, f, cfg)
    assert len(recs) == 1 and recs[0].accepted
    assert t1 == pytest.approx(1e-3)
    assert recs[0].est <= cfg.tol
    # advance uses the integrator value, not the control value
    direct = estimate_step(REG.pair("lie-avg"), prob, 1e-3, f)
    assert np.array_equal(to_nodal(f1).data, to_nodal(direct.u_next).data)


def test_step_adaptive_retries_until_accepted():
    prob, f = lin_prob(), lin_state()
    cfg = StepControlConfig(tol=1e-8)
    f1, t1, h_next, recs = step_adaptive(prob, REG.pair("lie-avg"), 0.0, 0.05, f, cfg)
    assert len(recs) > 1
    assert not any(r.accepted for r in recs[:-1]) and recs[-1].accepted
    hs = [r.h for r in recs]
    assert all(a > b for a, b in zip(hs, hs[1:]))  # strictly shrinking
    # every record respects the acceptance predicate
    for r in recs:
        assert r.accepted == (r.est <= cfg.reject_threshold * cfg.tol)
    assert t1 == pytest.approx(recs[-1].h)


def test_step_adaptive_aborts_at_h_min():
    prob, f = lin_prob(), lin_state()
    cfg = StepControlConfig(tol=1e-30, h_min=1e-3)
    with pytest.raises(ToleranceAbortError):
        step_adaptive(prob, REG.pair("lie-avg"), 0.0, 1e-3, f, cfg)


def test_local_extrapolation_advances_with_control_value():
    prob, f = lin_prob(), lin_state()
    cfg = StepControlConfig(tol=1e-4, local_extrapolation=True)
    f1, _, _, _ = step_adaptive(prob, REG.pair("lie-avg"), 0.0, 1e-3, f, cfg)
    direct = estimate_step(REG.pair("lie-avg"), prob, 1e-3, f)
    assert np.array_equal(to_nodal(f1).data, to_nodal(direct.u_control).data)


def test_project_real_strips_imaginary_part():
    grid = TorusGrid(1, 1.0, 16)
    prob = gray_scott_problem(grid)
    f = initial_condition("gs_bump", grid)
    cfg = StepControlConfig(tol=1e-3, project_real=True)
    f1, _, _, _ = step_adaptive(prob, REG.pair("comp3c-avg"), 0.0, 1e-2, f, cfg)
    assert np.all(to_nodal(f1).data.imag == 0.0)


# ---------------------------------------------------------------------------
# adaptive driver


def test_integrate_adaptive_lands_exactly():
    prob, f = lin_prob(), lin_state()
    cfg = StepControlConfig(tol=1e-6)
    f1, traj = integrate_adaptive(prob, REG.pair("lie-avg"), f, 0.0, 0.5, cfg)
    acc = traj.accepted_steps()
    assert sum(r.h for r in acc) == pytest.approx(0.5, rel=1e-12)
    assert traj.n_accepted + traj.n_rejected == len(traj.records)
    assert traj.total_flow_evals == sum(r.flow_evals for r in traj.records)
    assert traj.wall_time > 0
    # start times of accepted steps are increasing and begin at t0
    ts = [r.t for r in acc]
    assert ts[0] == 0.0 and all(a < b for a, b in zip(ts, ts[1:]))


def test_integrate_adaptive_trivial_and_invalid_spans():
    prob, f = lin_prob(), lin_state()
    cfg = StepControlConfig(tol=1e-6)
    f1, traj = integrate_adaptive(prob, REG.pair("lie-avg"), f, 1.0, 1.0, cfg)
    assert f1 is f and not traj.records
    with pytest.raises(ConfigError):
        integrate_adaptive(prob, REG.pair("lie-avg"), f, 1.0, 0.5, cfg)


def test_integrate_adaptive_snapshots():
    prob, f = lin_prob(), lin_state()
    cfg = StepControlConfig(tol=1e-6)
    f1, traj = integrate_adaptive(
        prob, REG.pair("lie-avg"), f, 0.0, 0.4, cfg, snapshot_every=2
    )
    assert len(traj.snapshots) == traj.n_accepted // 2
    times = [t for t, _ in traj.snapshots]
    assert all(a < b for a, b in zip(times, times[1:]))

    f2, traj2 = integrate_adaptive(
        prob, REG.pair("lie-avg"), f, 0.0, 0.4, cfg, snapshot_times=[0.2]
    )
    assert len(traj2.snapshots) == 1
    assert traj2.snapshots[0][0] >= 0.2


def test_snapshot_time_before_t0_is_taken_at_the_first_accepted_step():
    prob, f = lin_prob(), lin_state()
    cfg = StepControlConfig(tol=1e-6)
    _, traj = integrate_adaptive(prob, REG.pair("lie-avg"), f, 0.0, 0.4, cfg,
                                 snapshot_times=[0.2, -1.0])
    first = traj.accepted_steps()[0]
    assert len(traj.snapshots) == 2
    assert traj.snapshots[0][0] == first.t + first.h and traj.snapshots[1][0] >= 0.2


@pytest.mark.parametrize("times", [[np.nan, 0.2], [0.2, np.inf], [-np.inf], 0.2])
def test_integrate_adaptive_refuses_non_finite_snapshot_times(times):
    # a NaN sorts first and would hold back every later time: no snapshot at all;
    # a bare number is not a list of times
    prob, f = lin_prob(), lin_state()
    with pytest.raises(ConfigError, match="snapshot_times"):
        integrate_adaptive(prob, REG.pair("lie-avg"), f, 0.0, 0.4,
                           StepControlConfig(tol=1e-6), snapshot_times=times)


@pytest.mark.parametrize("t0, t_end", [(0.0, np.inf), (0.0, np.nan), (-np.inf, 0.4),
                                       (np.nan, 0.4)])
@pytest.mark.parametrize("driver", ["adaptive", "fixed"])
def test_integrate_refuses_a_non_finite_span_end_before_any_step(
        monkeypatch, driver, t0, t_end):
    # an infinite t_end ran the adaptive driver without end; a NaN one returned f0 unstepped
    import splitstep.control as control

    steps = []
    monkeypatch.setattr(control, "estimate_step", lambda *a, **kw: steps.append(a))
    monkeypatch.setattr(control, "compose_step", lambda *a, **kw: steps.append(a))
    with pytest.raises(ConfigError, match="t0 <= t_end"):
        if driver == "adaptive":
            integrate_adaptive(lin_prob(), REG.pair("lie-avg"), lin_state(), t0, t_end,
                               StepControlConfig(tol=1e-4))
        else:
            integrate_fixed(lin_prob(), REG.scheme("lie"), lin_state(), t0, t_end, 0.1)
    assert steps == []


@pytest.mark.parametrize("driver, h, iters, refused", [
    *(pytest.param(driver, h, iters, f"{key}: expected a positive finite number, got {h!r}",
                   id=f"{name}-{h}")
      for name, driver, key, iters in (("step", "step", "h", None),
                                       ("calibrate", "calibrate", "h0", 3),
                                       ("calibrate-iters0", "calibrate", "h0", 0))
      for h in (np.inf, np.nan, 0.0, -0.1)),
    pytest.param("calibrate", 0.1, 1.5, "iters: expected an integer, got 1.5",
                 id="calibrate-iters1.5"),
    pytest.param("calibrate", 0.1, -2, "iters: expected a positive integer, got -2",
                 id="calibrate-iters-2"),
])
def test_a_first_step_not_positive_and_finite_is_refused_before_any_trial(
        monkeypatch, driver, h, iters, refused):
    # an infinite h retried at h*alpha_min without end; a NaN one was accepted at h_min;
    # a negative one failed its trial step and aborted as a numerical failure.  With no
    # rounds, calibration returned h0 unchecked; iters=1.5 raised TypeError, and -2 ran none
    import splitstep.control as control

    trials = []
    monkeypatch.setattr(control, "estimate_step", lambda *a, **kw: trials.append(a))
    cfg = StepControlConfig(tol=1e-4)
    with pytest.raises(ConfigError, match=f"^{re.escape(refused)}$"):
        if driver == "step":
            step_adaptive(lin_prob(), REG.pair("lie-avg"), 0.0, h, lin_state(), cfg)
        else:
            calibrate_initial_step(lin_prob(), REG.pair("lie-avg"), lin_state(), cfg, h, iters)
    assert trials == []


@pytest.mark.parametrize("every", [0, -2, 1.5, True])
def test_integrate_adaptive_refuses_a_snapshot_every_below_one_or_not_an_integer(
        monkeypatch, every):
    # 0 divided by zero after the first step; -2 and 1.5 picked the wrong steps
    import splitstep.control as control

    trials = []
    monkeypatch.setattr(control, "estimate_step", lambda *a, **kw: trials.append(a))
    with pytest.raises(ConfigError, match="snapshot_every"):
        integrate_adaptive(lin_prob(), REG.pair("lie-avg"), lin_state(), 0.0, 0.4,
                           StepControlConfig(tol=1e-6), snapshot_every=every)
    assert trials == []


def test_integrate_adaptive_respects_h_max():
    prob, f = lin_prob(), lin_state()
    cfg = StepControlConfig(tol=1e-2, h_max=0.01)
    f1, traj = integrate_adaptive(prob, REG.pair("lie-avg"), f, 0.0, 0.1, cfg)
    assert max(r.h for r in traj.records) <= 0.01 + 1e-15


def test_default_h_init_formula():
    # with no h_init, the first attempted step is span * tol^(1/(p+1))
    prob, f = lin_prob(), lin_state()
    cfg = StepControlConfig(tol=1e-6)
    _, traj = integrate_adaptive(prob, REG.pair("lie-avg"), f, 0.0, 0.5, cfg)
    assert traj.records[0].h == pytest.approx(0.5 * (1e-6) ** 0.5, rel=1e-12)
    cfg2 = StepControlConfig(tol=1e-6, h_init=0.003)
    _, traj2 = integrate_adaptive(prob, REG.pair("lie-avg"), f, 0.0, 0.5, cfg2)
    assert traj2.records[0].h == pytest.approx(0.003)


def fragile_problem(h_limit, error=BlowUpError):
    """The linear problem with a B-flow that raises above |t| = h_limit."""
    base = lin_prob()

    def flow_b(t, f):
        if abs(t) > h_limit:
            raise error(f"fragile B-flow: |t| = {abs(t):g} > {h_limit:g}")
        return base.flows[1](t, f)

    return SplitProblem("fragile", (base.flows[0], flow_b), base.rhs, base.m)


def test_failed_trial_step_is_a_rejection():
    prob, f = fragile_problem(0.03), lin_state()
    cfg = StepControlConfig(tol=1e-6, h_init=0.2)
    f1, traj = integrate_adaptive(prob, REG.pair("lie-avg"), f, 0.0, 0.5, cfg)
    first, second = traj.records[:2]
    assert (first.h, first.est, first.accepted, first.flow_evals) == (0.2, None, False, 0)
    assert second.h == pytest.approx(0.2 * cfg.alpha_min)
    assert sum(r.h for r in traj.accepted_steps()) == pytest.approx(0.5, rel=1e-12)
    assert all(r.est is not None and r.h <= 0.03 for r in traj.accepted_steps())
    assert traj.n_rejected >= 2


def test_failing_trial_steps_still_abort_at_h_min():
    prob, f = fragile_problem(0.0, error=UnstableStepError), lin_state()
    cfg = StepControlConfig(tol=1e-6, h_init=0.01, h_min=1e-3)
    with pytest.raises(ToleranceAbortError, match="trial step failed"):
        step_adaptive(prob, REG.pair("lie-avg"), 0.0, 0.01, f, cfg)


# ---------------------------------------------------------------------------
# step grid and per-run state


def vdp_run(t_end):
    grid = TorusGrid(1, np.pi, 32)
    prob = van_der_pol_problem(grid, VdpParams(eps=1e-2))
    return integrate_adaptive(prob, REG.pair("lie-milne"), initial_condition("vdp_gaussians", grid),
                              0.0, t_end, StepControlConfig(tol=1e-3))[1]


@pytest.fixture(scope="module")
def vdp_traj():
    """A run of some 5,000 attempts, with the factor builds it made."""
    problems._vdp_factors.cache_clear()
    traj = vdp_run(0.3)
    return traj, problems._vdp_factors.cache_info().misses


def test_adaptive_steps_lie_on_the_grid_anchored_at_the_first_step(vdp_traj):
    traj, _ = vdp_traj
    h0, hs = traj.records[0].h, [r.h for r in traj.accepted_steps()]
    assert len(set(hs)) > 5 and sum(hs) == pytest.approx(0.3, rel=1e-12)
    for h in hs[:-1]:  # the last step is clipped to land on t_end
        k = round(32 * math.log2(h / h0))
        assert h == math.ldexp(h0 * 2 ** (k % 32 / 32), k // 32)


def test_adaptive_steps_reuse_their_flow_factors(vdp_traj):
    # off the grid, every attempt built its own factors
    traj, builds = vdp_traj
    assert builds <= 0.1 * len(traj.records)


def test_the_step_loop_reads_no_input_per_attempt(monkeypatch):
    read, calls = spectral._read, []

    def counted(*args):
        calls.append(args[2])
        return read(*args)

    for mod in [m for name, m in sys.modules.items() if name.startswith("splitstep")]:
        if getattr(mod, "_read", None) is read:
            monkeypatch.setattr(mod, "_read", counted)
    short = vdp_run(0.02)
    per_run = list(calls)
    calls.clear()
    long = vdp_run(0.1)
    assert len(long.records) > 5 * len(short.records)
    assert calls == per_run


# ---------------------------------------------------------------------------
# fixed driver


def test_integrate_fixed_step_layout():
    prob, f = lin_prob(), lin_state()
    f1, traj = integrate_fixed(prob, REG.scheme("strang"), f, 0.0, 1.0, 0.3)
    hs = [r.h for r in traj.records]
    assert len(hs) == 4
    assert hs[:3] == [0.3, 0.3, 0.3] and hs[3] == pytest.approx(0.1)
    assert sum(hs) == pytest.approx(1.0, rel=1e-14)
    assert all(r.est is None and r.accepted for r in traj.records)

    # an exact divisor produces no ragged last step
    _, traj2 = integrate_fixed(prob, REG.scheme("strang"), f, 0.0, 1.0, 0.25)
    assert [r.h for r in traj2.records] == [0.25] * 4

    # h larger than the span collapses to a single clipped step
    _, traj3 = integrate_fixed(prob, REG.scheme("strang"), f, 0.0, 0.2, 5.0)
    assert [r.h for r in traj3.records] == [pytest.approx(0.2)]


def test_integrate_fixed_matches_manual_composition():
    prob, f = lin_prob(), lin_state()
    f1, _ = integrate_fixed(prob, REG.scheme("lie"), f, 0.0, 0.09, 0.03)
    g = f
    for _ in range(3):
        g = compose_step(REG.scheme("lie"), prob, 0.03, g)
    assert np.array_equal(to_nodal(f1).data, to_nodal(g).data)


def test_integrate_fixed_validation():
    prob, f = lin_prob(), lin_state()
    with pytest.raises(ConfigError):
        integrate_fixed(prob, REG.scheme("lie"), f, 0.0, 1.0, 0.0)
    with pytest.raises(ConfigError):
        integrate_fixed(prob, REG.scheme("lie"), f, 1.0, 0.0, 0.1)
    f1, traj = integrate_fixed(prob, REG.scheme("lie"), f, 1.0, 1.0, 0.1)
    assert f1 is f and not traj.records


def test_integrate_fixed_refuses_a_nan_step(monkeypatch):
    # NaN compares false both ways; it used to reach int(ceil(span / h)), and an
    # infinite h took the whole span in one step
    import splitstep.control as control

    steps = []
    monkeypatch.setattr(control, "compose_step", lambda *a, **kw: steps.append(a))
    for h in (float("nan"), np.inf):
        with pytest.raises(ConfigError, match=f"^h: expected a positive finite number, got {h!r}$"):
            integrate_fixed(lin_prob(), REG.scheme("lie"), lin_state(), 0.0, 1.0, h)
    assert steps == []


# ---------------------------------------------------------------------------
# calibration


def test_calibrate_initial_step_settles_on_plateau():
    prob, f = lin_prob(), lin_state()
    cfg = StepControlConfig(tol=1e-6)
    pair = REG.pair("lie-avg")
    h = calibrate_initial_step(prob, pair, f, cfg, h0=2e-3)
    est = estimate_step(pair, prob, h, f).est_norm
    assert 0.2 * cfg.tol <= est <= cfg.tol
    # a fixed point: one more round barely moves it
    h2 = calibrate_initial_step(prob, pair, f, cfg, h0=h, iters=1)
    assert abs(h2 - h) / h <= 0.15
    # growth toward the plateau is capped at alpha_max per round
    h_far = calibrate_initial_step(prob, pair, f, cfg, h0=1e-5, iters=1)
    assert h_far == pytest.approx(4e-5)


def test_calibration_retries_a_failed_trial_with_alpha_min():
    base = fragile_problem(0.03)
    tried = []

    def flow_b(t, f):
        tried.append(abs(t))
        return base.flows[1](t, f)

    prob = SplitProblem("fragile", (base.flows[0], flow_b), base.rhs, base.m)
    cfg = StepControlConfig(tol=1e-6)
    h = calibrate_initial_step(prob, REG.pair("lie-avg"), lin_state(), cfg, h0=0.2)
    assert h > 0
    assert tried[:3] == pytest.approx([0.2, 0.05, 0.0125])
    for failed, retry in zip(tried, tried[1:]):
        if failed > 0.03:
            assert retry == pytest.approx(failed * cfg.alpha_min)


def test_calibration_of_always_failing_flows_aborts_at_h_min():
    # far more shrinks than any fixed retry budget before h reaches h_min
    prob, f = fragile_problem(0.0), lin_state()
    cfg = StepControlConfig(tol=1e-6, h_min=1e-300)
    with pytest.raises(ToleranceAbortError, match="calibration step.*trial step failed"):
        calibrate_initial_step(prob, REG.pair("lie-avg"), f, cfg, h0=0.2)


# ---------------------------------------------------------------------------
# trajectory CSV


def test_trajectory_csv_round_trip(tmp_path):
    prob, f = lin_prob(), lin_state()
    cfg = StepControlConfig(tol=1e-7)
    _, traj = integrate_adaptive(prob, REG.pair("lie-avg"), f, 0.0, 0.2, cfg)
    p1 = tmp_path / "a.csv"
    write_trajectory_csv(traj, p1)
    lines = p1.read_text().splitlines()
    assert lines[0] == "t,h,est,accepted,flow_evals"
    assert len(lines) == len(traj.records) + 1
    for line, r in zip(lines[1:], traj.records):
        t, h, est, acc, evals = line.split(",")
        assert float(t) == r.t and float(h) == r.h  # repr round-trips exactly
        assert float(est) == r.est
        assert int(acc) == int(r.accepted) and int(evals) == r.flow_evals

    # writing the same trajectory again is byte-identical
    p2 = tmp_path / "b.csv"
    write_trajectory_csv(traj, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_trajectory_csv_fixed_run_has_empty_est(tmp_path):
    prob, f = lin_prob(), lin_state()
    _, traj = integrate_fixed(prob, REG.scheme("strang"), f, 0.0, 0.1, 0.05)
    p = tmp_path / "fixed.csv"
    write_trajectory_csv(traj, p)
    for line in p.read_text().splitlines()[1:]:
        assert line.split(",")[2] == ""


@pytest.mark.parametrize("bad", [
    {"order_p": 0}, {"order_p": "2"}, {"order_p": True}, {"order_p": 1.5},
    {"h_init": -0.1}, {"h_init": 0.0}, {"h_init": "x"},
    {"norm": "l1"},
    {"local_extrapolation": "no"}, {"project_real": "false"}, {"project_real": 1},
])
def test_config_refuses_malformed_control_values(bad):
    with pytest.raises(ConfigError, match=next(iter(bad))):
        StepControlConfig(tol=1e-5, **bad)


def test_config_accepts_the_documented_forms():
    StepControlConfig(tol=1e-5, order_p=np.int64(2), h_init=1, norm="max",
                      local_extrapolation=True, project_real=np.bool_(False))
