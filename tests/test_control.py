"""Step-size controller, adaptive/fixed drivers, trajectory output."""

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
    write_trajectory_csv,
)

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
