"""Reference solves, convergence studies, efficiency, commutator check."""

import numpy as np
import pytest

from _oracles import expm_dense, rk4

from splitstep import (
    ConfigError,
    Field,
    GrayScottParams,
    ReferenceAccuracyError,
    StepControlConfig,
    TorusGrid,
    VdpParams,
    builtin_registry,
    commutator_check,
    compose_step,
    convergence_study,
    efficiency_compare,
    estimate_step,
    fit_loglog,
    gray_scott_problem,
    initial_condition,
    linear_problem,
    reference_solution,
    sobolev_norm,
    to_nodal,
    van_der_pol_problem,
    write_convergence_csv,
    write_efficiency_csv,
)
from splitstep import diagnostics
from splitstep.diagnostics import FixedSolves, _err, _one_step_reference

REG = builtin_registry()
GRID = TorusGrid(1, 1.0, 16)


def lin_prob():
    return linear_problem(GRID, diffusion=0.2, potential=lambda x: np.cos(np.pi * x))


def lin_state():
    return initial_condition("random_smooth", GRID, m=1, seed=42)


def dense_generator(prob):
    M = np.empty((GRID.n, GRID.n), dtype=np.complex128)
    for j in range(GRID.n):
        e = np.zeros(GRID.n)
        e[j] = 1.0
        M[:, j] = to_nodal(prob.full_rhs(Field(GRID, e))).data[0]
    return M


# ---------------------------------------------------------------------------
# slope fitting


def test_fit_loglog_recovers_exact_power():
    hs = np.array([0.1, 0.05, 0.025, 0.0125])
    slope, used = fit_loglog(hs, 3.0 * hs**2.5)
    assert slope == pytest.approx(2.5, abs=1e-12)
    assert used == 4


def test_fit_loglog_skips_zeros_and_degenerates():
    hs = [0.1, 0.05, 0.025]
    slope, used = fit_loglog(hs, [1e-2, 0.0, 2.5e-3])
    assert used == 2 and np.isfinite(slope)
    slope, used = fit_loglog(hs, [0.0, 0.0, 1e-3])
    assert np.isnan(slope) and used == 1


# ---------------------------------------------------------------------------
# reference solves


def test_reference_solution_matches_dense_exponential():
    prob, f = lin_prob(), lin_state()
    t_end = 0.3
    ref, info = reference_solution(prob, f, 0.0, t_end)
    assert info["scheme"] == "strang"  # the builtin reference scheme of two operators
    exact = expm_dense(dense_generator(prob) * t_end) @ f.data[0]
    err = np.max(np.abs(to_nodal(ref).data[0] - exact)) / np.max(np.abs(exact))
    assert err <= 1e-8
    assert info["floor"][0.0] <= 1e-10 * max(1.0, np.linalg.norm(exact))
    assert info["h"] > 0


def test_reference_solution_honors_explicit_target():
    prob, f = lin_prob(), lin_state()
    ref, info = reference_solution(prob, f, 0.0, 0.2, target={0.0: 1e-6}, norms=(0.0,))
    assert info["floor"][0.0] <= 1e-6


def test_reference_solution_gives_up_cleanly():
    prob, f = lin_prob(), lin_state()
    with pytest.raises(ReferenceAccuracyError):
        reference_solution(prob, f, 0.0, 0.2, target={0.0: 1e-300}, max_halvings=3)


def test_reference_solution_empty_span():
    prob, f = lin_prob(), lin_state()
    ref, info = reference_solution(prob, f, 0.5, 0.5)
    assert ref is f and info["h"] == 0.0


@pytest.mark.parametrize("t0, t_end", [(0.5, 0.2), (0.0, np.inf), (0.0, np.nan), (np.nan, 0.2)])
def test_reference_solution_refuses_a_backward_or_non_finite_span(t0, t_end):
    # a backward span returned f0 itself, with h 0.0 and floor 0, as if it were empty
    with pytest.raises(ConfigError, match="t0 <= t_end"):
        reference_solution(lin_prob(), lin_state(), t0, t_end)


@pytest.mark.parametrize("n, want", [(-1, "an integer >= 0"), (1.5, "an integer"),
                                     ("3", "an integer"), (True, "an integer")])
def test_reference_solution_reads_max_halvings_before_any_solve(monkeypatch, n, want):
    # -1 raised ReferenceAccuracyError after a solve, 1.5 and "3" TypeError; True ran one halving
    solves = []
    monkeypatch.setattr(diagnostics, "integrate_fixed", lambda *a, **kw: solves.append(a))
    with pytest.raises(ConfigError, match=f"^max_halvings: expected {want}, got {n!r}$"):
        reference_solution(lin_prob(), lin_state(), 0.0, 0.1, max_halvings=n)
    assert solves == []


# ---------------------------------------------------------------------------
# fixed-step memo and one-step reference ladders


class RecordingSolves(FixedSolves):
    """FixedSolves that also lists every (substeps, state) it hands out."""

    def __init__(self, prob, f0):
        super().__init__(prob, f0)
        self.calls = []

    def run(self, scheme, t0, t_end, h):
        state = super().run(scheme, t0, t_end, h)
        self.calls.append((round((t_end - t0) / h), state))
        return state


def richardson_diagonal(states, order):
    """Diagonal entries T[k][k] of the Richardson tableau over ``states``,
    the solves of a self-adjoint scheme of ``order`` at h, h/2, ...:
    T[k][j] = T[k][j-1] + (T[k][j-1] - T[k-1][j-1]) / (2^(order + 2(j-1)) - 1)."""
    above, diagonal = [], []
    for state in states:
        row = [state]
        for j, before in enumerate(above, start=1):
            row.append(row[-1] + (row[-1] - before) * (1.0 / (2.0 ** (order + 2 * (j - 1)) - 1.0)))
        diagonal.append(row[-1])
        above = row
    return diagonal


def test_one_step_ladder_stops_at_the_roundoff_floor():
    # Gray-Scott, 1D n=128, gs_bump, emb23c at h=0.01: the goal (1% of the
    # estimator deviation) lies below the H1 roundoff floor, so only the
    # stopping rule ends the tableau
    grid = TorusGrid(1, np.pi, 128)
    prob = gray_scott_problem(grid, GrayScottParams())
    f0 = initial_condition("gs_bump", grid)
    pair = REG.pair("emb23c")
    ref_scheme = REG.reference_scheme(arity=prob.arity)
    h, norms = 0.01, (0.0, 1.0)
    u1 = compose_step(pair.integrator, prob, h, f0)
    res = estimate_step(pair, prob, h, f0)
    solves = RecordingSolves(prob, f0)
    ref, deltas = _one_step_reference(solves, ref_scheme, 0.0, h, norms, u1, res)

    substeps = [n for n, _ in solves.calls]
    assert substeps == [2**k for k in range(len(substeps))]
    assert max(substeps) <= 16, substeps  # the comp3c ladder ran to 64
    # the reference is a diagonal entry of the tableau, not a memo state
    diagonal = richardson_diagonal([state for _, state in solves.calls], ref_scheme.order)
    i = next(k for k, entry in enumerate(diagonal) if np.array_equal(entry.data, ref.data))
    assert i >= 1 and all(ref is not state for _, state in solves.calls)
    # the floor reported is the distance of that entry from the diagonal entry before
    assert deltas == {s: _err(ref, diagonal[i - 1], s) for s in norms}

    oracle = rk4(lambda y: to_nodal(prob.full_rhs(y)), to_nodal(f0), h, 200)
    assert sobolev_norm(to_nodal(ref) - oracle, 0.0) <= 1e-13


def test_reference_rungs_are_exact_halvings_of_h0():
    prob, f = lin_prob(), lin_state()
    solves = RecordingSolves(prob, f)
    h0 = 0.3 / 8
    ref, info = reference_solution(prob, f, 0.0, 0.3, h0=h0, solves=solves)
    substeps = [n for n, _ in solves.calls]
    assert len(substeps) >= 3
    assert substeps == [8 * 2**k for k in range(len(substeps))]
    # the returned step is the last rung requested, bitwise h0 / 2^k
    assert info["h"] == h0 / 2 ** (len(substeps) - 1)
    # the returned state is the last diagonal entry: read-only, and no memo state
    states = [state for _, state in solves.calls]
    assert np.array_equal(ref.data, richardson_diagonal(states, 2)[-1].data)
    assert all(ref is not state for state in states)
    with pytest.raises(ValueError):
        ref.data[0, 0] = 1.0


def test_fixed_solves_hands_out_one_read_only_state_per_key():
    prob, f = lin_prob(), lin_state()
    strang = REG.scheme("strang")
    solves = FixedSolves(prob, f)
    state = solves.run(strang, 0.0, 0.2, 0.05)
    assert solves.run(strang, 0.0, 0.2, 0.05) is state
    with pytest.raises(ValueError):
        state.data[...] = 0.0
    ref, _ = reference_solution(prob, f, 0.0, 0.2, solves=solves)
    with pytest.raises(ValueError):
        ref.data[0, 0] = 1.0
    # an empty span hands back f0's values without freezing the caller's f0
    same = solves.run(strang, 0.5, 0.5, 0.1)
    assert not same.data.flags.writeable and f.data.flags.writeable
    assert np.array_equal(same.data, f.data)


def test_fixed_solves_belongs_to_one_problem_and_state():
    prob, f = lin_prob(), lin_state()
    other = initial_condition("random_smooth", GRID, m=1, seed=7)
    with pytest.raises(ValueError):
        convergence_study(prob, REG.scheme("lie"), other, 0.0, 0.2, [0.02, 0.01],
                          solves=FixedSolves(prob, f))


# ---------------------------------------------------------------------------
# convergence studies


def test_convergence_orders_on_linear_problem():
    prob, f = lin_prob(), lin_state()
    hs = [0.02, 0.01, 0.005, 0.0025]
    lie = convergence_study(prob, REG.scheme("lie"), f, 0.0, 0.2, hs)
    assert lie.slope("global") == pytest.approx(1.0, abs=0.15)
    assert lie.slope("local") == pytest.approx(2.0, abs=0.15)
    strang = convergence_study(prob, REG.scheme("strang"), f, 0.0, 0.2, hs)
    assert strang.slope("global") == pytest.approx(2.0, abs=0.15)
    assert strang.slope("local") == pytest.approx(3.0, abs=0.15)
    assert not lie.exact and not strang.exact


def test_convergence_study_pair_estimator_columns():
    prob, f = lin_prob(), lin_state()
    hs = [0.008, 0.004, 0.002, 0.001]
    rep = convergence_study(prob, REG.pair("lie-avg"), f, 0.0, 0.2, hs, what=("local",))
    assert rep.est is not None and rep.est_true is not None
    # asymptotically correct: est/true tends to 1 at the smallest h
    assert rep.est[-1] / rep.est_true[-1] == pytest.approx(1.0, abs=0.1)
    # the deviation |est - true| decays at least one order faster
    assert rep.est_deviation_slope >= 2.7
    # the averaged control value carries local order p + 2
    assert rep.ctrl_local_slope == pytest.approx(3.0, abs=0.25)


def test_convergence_study_detects_exact_splitting():
    # constant potential commutes with diffusion: no splitting error
    prob = linear_problem(GRID, diffusion=0.2, potential=lambda x: -0.4 + 0.0 * x)
    f = lin_state()
    rep = convergence_study(prob, REG.scheme("strang"), f, 0.0, 0.2, [0.02, 0.01, 0.005])
    assert rep.exact
    assert np.isnan(rep.slope("global"))


def _cos(x):
    return np.cos(np.pi * x)


def _const(x):
    return -0.4 + 0.0 * x


@pytest.mark.parametrize(
    "potential, hs, what",
    [
        (_cos, [0.02, 0.01, 0.005], ("local", "global")),  # every point above the floor
        (_const, [0.02, 0.01, 0.005], ("local", "global")),  # exact splitting: none
        (_cos, [0.02, 0.01, 1e-4, 1e-5, 1e-6], ("local",)),  # the smallest steps reach it
    ],
)
def test_points_used_counts_the_errors_above_ten_times_the_floor(potential, hs, what):
    prob = linear_problem(GRID, diffusion=0.2, potential=potential)
    rep = convergence_study(prob, REG.scheme("strang"), lin_state(), 0.0, 0.2, hs,
                            norms=(0.0, 1.0), what=what)
    errors = {"local": (rep.local, rep.local_floor), "global": (rep.global_, rep.ref_floor)}
    assert set(rep.points_used) == {(k, s) for k in what for s in (0.0, 1.0)}
    for (kind, s), used in rep.points_used.items():
        errs, floor = errors[kind]
        assert used == np.count_nonzero(errs[s] > 10.0 * floor[s])
        assert np.isnan(rep.slope(kind, s)) == (used < 2)


def test_convergence_study_multiple_norms():
    prob, f = lin_prob(), lin_state()
    rep = convergence_study(
        prob, REG.scheme("strang"), f, 0.0, 0.2, [0.02, 0.01, 0.005], norms=(0.0, 1.0)
    )
    assert set(rep.global_) == {0.0, 1.0} and set(rep.local) == {0.0, 1.0}
    # smooth data: both norms see the full order
    assert rep.global_slopes[1.0] == pytest.approx(2.0, abs=0.2)


# ---------------------------------------------------------------------------
# efficiency


def test_efficiency_compare_smoke():
    prob, f = lin_prob(), lin_state()
    cfg = StepControlConfig(tol=1e-6)
    row = efficiency_compare(prob, REG.pair("lie-avg"), f, 0.0, 0.5, cfg)
    assert row.method == "lie-avg" and row.tol == 1e-6
    assert row.steps_adaptive > 0 and row.steps_equidist > 0
    assert row.h_min > 0
    # near-autonomous smooth problem: adaptive cannot beat equidistant by
    # much, and must not be grossly worse
    assert 0.5 <= row.step_ratio <= 1.15
    assert row.time_adaptive >= 0 and row.time_equidist >= 0


def test_efficiency_compare_initial_guess_honours_order_p(monkeypatch):
    # calibration starts from the same guess integrate_adaptive would
    # make: span * tol^(1/(p+1)) with p = cfg.order_p when it is set
    import splitstep.diagnostics as diagnostics

    seen = []
    real = diagnostics.calibrate_initial_step

    def spy(prob, pair, f0, cfg, h0, **kw):
        seen.append(h0)
        return real(prob, pair, f0, cfg, h0, **kw)

    monkeypatch.setattr(diagnostics, "calibrate_initial_step", spy)
    prob, f = lin_prob(), lin_state()
    for order_p, p in ((None, 1), (3, 3)):
        cfg = StepControlConfig(tol=1e-6, order_p=order_p)
        efficiency_compare(prob, REG.pair("lie-avg"), f, 0.0, 0.5, cfg)
        assert seen[-1] == 0.5 * 1e-6 ** (1.0 / (p + 1))
    assert len(seen) == 2


@pytest.mark.parametrize("cfg", [StepControlConfig(tol=1e-6, h_max=1e-4),
                                 StepControlConfig(tol=4.0)])
def test_efficiency_compare_probes_no_step_the_run_cannot_take(monkeypatch, cfg):
    # calibration starts from integrate_adaptive's clipped first step and
    # stays within h_max and the span, as every step of the run does
    import splitstep.control as control

    trials = []
    real = control.estimate_step

    def spy(pair, prob, h, f, **kw):
        trials.append(h)
        return real(pair, prob, h, f, **kw)

    monkeypatch.setattr(control, "estimate_step", spy)
    efficiency_compare(lin_prob(), REG.pair("lie-avg"), lin_state(), 0.0, 0.5, cfg)
    assert trials and max(trials) <= min(cfg.h_max, 0.5)


@pytest.mark.parametrize("calibrate", [True, False])
@pytest.mark.parametrize("t_end, match", [(0.0, r"t_end=0\.0 must exceed t0=0\.0"),
                                          (-0.5, r"t_end=-0\.5 must exceed t0=0\.0"),
                                          (np.nan, r"t_end=nan must exceed t0=0\.0"),
                                          (np.inf, r"finite t0 <= t_end")])
def test_efficiency_compare_refuses_an_empty_span_before_any_solve(monkeypatch, t_end, match,
                                                                    calibrate):
    # an empty span has no accepted step to measure; a backward one would
    # first run calibration trials at h_min, and an infinite one ran them without end
    import splitstep.control as control

    trials = []
    monkeypatch.setattr(control, "estimate_step", lambda *a, **kw: trials.append(a))
    with pytest.raises(ConfigError, match=match):
        efficiency_compare(lin_prob(), REG.pair("lie-avg"), lin_state(), 0.0, t_end,
                           StepControlConfig(tol=1e-6), calibrate=calibrate)
    assert trials == []


# ---------------------------------------------------------------------------
# commutator check


def test_commutator_check_on_smooth_field():
    # on [-pi, pi] the Gaussian bump is resolved at n = 64: no warning
    grid = TorusGrid(1, np.pi, 64)
    f = initial_condition("gs_bump", grid)
    rep = commutator_check(f, GrayScottParams())
    # the reaction is cubic, so Richardson over eps and eps/2 removes the
    # entire finite-difference error; only roundoff remains
    assert rep.rel_difference <= 1e-10
    assert rep.eps == 1e-3


def test_commutator_check_2d():
    grid = TorusGrid(2, np.pi, 32)
    f = initial_condition("gs_bump", grid)
    rep = commutator_check(f, GrayScottParams(), eps=5e-4)
    assert rep.rel_difference <= 1e-9


def test_commutator_norm_stable_under_refinement():
    # the bracket is a continuum object: doubling n must not move its L2
    # norm once the field is resolved
    from splitstep import quadrature_l2
    from splitstep.problems import gs_bump

    vals = {}
    for n in (64, 128):
        grid = TorusGrid(1, np.pi, n)
        vals[n] = quadrature_l2(gs_commutator_field(grid))
    assert abs(vals[128] - vals[64]) / vals[64] <= 1e-6


def gs_commutator_field(grid):
    from splitstep import gs_commutator
    from splitstep.problems import gs_bump

    return gs_commutator(gs_bump(grid), GrayScottParams())


# ---------------------------------------------------------------------------
# CSV writers


def test_convergence_csv_contents(tmp_path):
    prob, f = lin_prob(), lin_state()
    rep = convergence_study(
        prob, REG.pair("lie-avg"), f, 0.0, 0.2, [0.01, 0.005], what=("local",)
    )
    p = tmp_path / "conv.csv"
    write_convergence_csv(rep, p, preamble={"subject": "lie-avg", "tol": "n/a"})
    lines = p.read_text().splitlines()
    assert lines[0] == "# subject=lie-avg"
    header_at = lines.index("series,s,h,value")
    rows = [l for l in lines[header_at + 1 :] if not l.startswith("#")]
    series = {r.split(",")[0] for r in rows}
    assert series == {"local", "est", "est_true", "est_deviation", "ctrl_local"}
    # data rows parse back to the report arrays exactly
    local_rows = [r for r in rows if r.startswith("local,")]
    for row, h, v in zip(local_rows, rep.hs, rep.local[0.0]):
        _, s, hh, vv = row.split(",")
        assert float(hh) == h and float(vv) == v
    assert any(l.startswith("# slope series=local") for l in lines)
    assert any(l.startswith("# slope series=est_deviation") for l in lines)

    p2 = tmp_path / "again.csv"
    write_convergence_csv(rep, p2, preamble={"subject": "lie-avg", "tol": "n/a"})
    assert p.read_bytes() == p2.read_bytes()


def test_convergence_csv_exact_flag(tmp_path):
    prob = linear_problem(GRID, diffusion=0.2, potential=lambda x: -0.4 + 0.0 * x)
    rep = convergence_study(prob, REG.scheme("strang"), lin_state(), 0.0, 0.2, [0.02, 0.01])
    p = tmp_path / "exact.csv"
    write_convergence_csv(rep, p)
    assert "# exact=1" in p.read_text().splitlines()


def test_efficiency_csv_contents(tmp_path):
    prob, f = lin_prob(), lin_state()
    cfg = StepControlConfig(tol=1e-5)
    row = efficiency_compare(prob, REG.pair("lie-avg"), f, 0.0, 0.3, cfg)
    p = tmp_path / "eff.csv"
    write_efficiency_csv([row], p, preamble={"problem": "linear"})
    lines = p.read_text().splitlines()
    assert lines[0] == "# problem=linear"
    assert lines[1] == "method,tol,steps_adaptive,steps_equidist,time_adaptive,time_equidist"
    cells = lines[2].split(",")
    assert cells[0] == "lie-avg"
    assert float(cells[1]) == 1e-5
    assert int(cells[2]) == row.steps_adaptive and int(cells[3]) == row.steps_equidist


def test_efficiency_time_equidist_is_the_equidistant_wall_time(monkeypatch):
    import splitstep.diagnostics as diagnostics

    real = diagnostics.integrate_fixed

    def timed(*args, **kwargs):
        state, traj = real(*args, **kwargs)
        traj.wall_time = 12.5
        return state, traj

    monkeypatch.setattr(diagnostics, "integrate_fixed", timed)
    row = efficiency_compare(lin_prob(), REG.pair("lie-avg"), lin_state(), 0.0, 0.3,
                             StepControlConfig(tol=1e-5))
    assert row.time_equidist == 12.5


def test_local_only_pair_csv_lists_each_series_once_in_order(tmp_path):
    rep = convergence_study(lin_prob(), REG.pair("lie-avg"), lin_state(), 0.0, 0.2,
                            [0.01, 0.005], what=("local",))
    p = tmp_path / "conv.csv"
    write_convergence_csv(rep, p)
    lines = p.read_text().splitlines()
    rows = [l.split(",")[0] for l in lines[1:] if not l.startswith("#")]
    assert rows == [name for name in ("local", "est", "est_true", "est_deviation", "ctrl_local")
                    for _ in rep.hs]
    slopes = [l.split()[2] for l in lines if l.startswith("# slope")]
    assert slopes == ["series=local", "series=est_deviation", "series=ctrl_local"]


@pytest.mark.parametrize("what", [("locl",), "local", ("local", "both"), ()])
def test_convergence_study_refuses_unknown_kinds(what):
    with pytest.raises(ConfigError, match="what"):
        convergence_study(lin_prob(), REG.scheme("lie"), lin_state(), 0.0, 0.2, [0.01],
                          what=what)


@pytest.mark.parametrize("hs, norms, what, key, t_end", [
    # these five keep the ids they had before t_end was a parameter
    *(pytest.param(*row, 0.2, id=f"hs{i}-norms{i}-what{i}-{row[3]}") for i, row in enumerate([
        ([0.01], (), ("local",), "norms"),
        ([0.01], (1.0, 1.0), ("local",), "norms"),
        ([], (0.0,), ("local",), "hs"),
        ([0.01, 0.01], (0.0,), ("local",), "hs"),
        ([0.8, 0.4], (0.0,), ("global",), "hs"),
    ])),
    # holes the CLI's own readers used to close alone: float() read a string step, a
    # negative step failed inside a flow, a negative index failed after the solves, and
    # a local-only study ran over any span
    pytest.param(["0.05", "0.025"], (0.0,), ("local",), "hs", 0.2, id="string-hs"),
    pytest.param([0.05, -0.025], (0.0,), ("local",), "hs", 0.2, id="negative-hs"),
    pytest.param([0.05], (-1.0,), ("local",), "norms", 0.2, id="negative-norm"),
    pytest.param([0.05], (0.0,), ("local",), "convergence_study", -1.0, id="backward-span"),
    pytest.param([0.05], (0.0,), ("local",), "convergence_study", 0.0, id="empty-span"),
])
def test_convergence_study_refuses_norms_and_steps_it_cannot_measure(
        monkeypatch, hs, norms, what, key, t_end):
    solves = []
    for name in ("estimate_step", "compose_step", "integrate_fixed"):
        monkeypatch.setattr(diagnostics, name, lambda *a, **kw: solves.append(a))
    with pytest.raises(ConfigError, match=f"^{key}: "):
        convergence_study(lin_prob(), REG.scheme("strang"), lin_state(), 0.0, t_end, hs,
                          norms=norms, what=what)
    assert solves == []


def test_local_study_takes_steps_above_the_span():
    # one-step errors do not depend on the span; only global ones are clipped
    rep = convergence_study(lin_prob(), REG.scheme("lie"), lin_state(), 0.0, 0.2, [0.8, 0.4],
                            what=("local",))
    assert np.all(rep.local[0.0] > 0)


def test_one_step_ladder_out_of_rungs_raises():
    # u1 is a finer reference, so 1% of its error is out of reach of the
    # one halving allowed: the tableau runs out of rungs at h/2 and gives up
    prob, f = lin_prob(), lin_state()
    ref_scheme = REG.reference_scheme(arity=prob.arity)
    h, norms = 0.1, (0.0, 1.0)
    solves = RecordingSolves(prob, f)
    u1 = solves.run(ref_scheme, 0.0, h, h / 256)
    solves.calls.clear()
    with pytest.raises(ReferenceAccuracyError, match="1 halvings"):
        _one_step_reference(solves, ref_scheme, 0.0, h, norms, u1, None, max_halvings=1)
    assert [n for n, _ in solves.calls] == [1, 2]


class BoundedSolves(RecordingSolves):
    """RecordingSolves that fails the test past ``limit`` solves."""

    def __init__(self, prob, f0, limit):
        super().__init__(prob, f0)
        self.limit = limit

    def run(self, scheme, t0, t_end, h):
        assert len(self.calls) < self.limit, "the ladder halved past its roundoff floor"
        return super().run(scheme, t0, t_end, h)


def test_reference_below_roundoff_returns_the_rung_before_the_stall():
    # a target below roundoff is never met: the diagonal deltas stop
    # shrinking near 4e-15, and the tableau must stop there instead of
    # halving on to its cap (64 * 2^10 steps)
    prob, f = lin_prob(), lin_state()
    solves = BoundedSolves(prob, f, limit=9)
    ref, info = reference_solution(prob, f, 0.0, 0.2, target={0.0: 1e-300},
                                   max_halvings=10, solves=solves)
    diagonal = richardson_diagonal([state for _, state in solves.calls], 2)
    assert np.array_equal(ref.data, diagonal[-2].data)
    assert info["h"] == 0.2 / solves.calls[-2][0]
    # the floor is the returned entry's delta, and the next delta is no smaller
    assert info["floor"] == {0.0: _err(diagonal[-2], diagonal[-3], 0.0)}
    assert _err(diagonal[-1], diagonal[-2], 0.0) >= info["floor"][0.0]
    assert info["floor"][0.0] <= 1e-12


def stiff_vdp():
    # van der Pol, eps 1e-2, 1D n=64, vdp_gaussians over [0, 1]: a fixed-step
    # comp3c solve blows up at h = 1/64, a Strang solve does not
    grid = TorusGrid(1, np.pi, 64)
    return van_der_pol_problem(grid, VdpParams(eps=1e-2)), initial_condition("vdp_gaussians", grid)


def test_default_reference_on_stiff_van_der_pol_reaches_its_floor():
    prob, f = stiff_vdp()
    ref, info = reference_solution(prob, f, 0.0, 1.0)
    assert info["scheme"] == "strang"
    assert info["floor"][0.0] <= 1e-10 * sobolev_norm(ref, 0.0)


def test_reference_rung_whose_solve_fails_is_unresolved():
    prob, f = stiff_vdp()
    solves = RecordingSolves(prob, f)
    goal = 1e-6 * sobolev_norm(f, 0.0)
    ref, info = reference_solution(prob, f, 0.0, 1.0, scheme=REG.scheme("comp3c"),
                                   target={0.0: goal}, solves=solves)
    assert info["scheme"] == "comp3c" and info["floor"][0.0] <= goal
    # the first rung, 64 steps, blew up: the tableau starts at 128
    substeps = [n for n, _ in solves.calls]
    assert substeps == [128 * 2**k for k in range(len(substeps))]


def test_global_reference_starts_on_the_strang_subject_solves(monkeypatch):
    solved = []
    real = diagnostics.integrate_fixed

    def counted(prob, scheme, f0, t0, t_end, h):
        solved.append((scheme.name, h))
        return real(prob, scheme, f0, t0, t_end, h)

    monkeypatch.setattr(diagnostics, "integrate_fixed", counted)
    prob, f = lin_prob(), lin_state()
    hs = [0.02, 0.01, 0.005]
    solves = RecordingSolves(prob, f)
    rep = convergence_study(prob, REG.scheme("strang"), f, 0.0, 0.2, hs, what=("global",),
                            solves=solves)
    assert rep.global_slopes[0.0] == pytest.approx(2.0, abs=0.15)
    # the tableau's first rung is the subject's finest step, solved once for both
    assert solves.calls[0][0] == round(0.2 / 0.005)
    assert solved.count(("strang", 0.005)) == 1
    # every other solve is a subject step or a finer reference rung
    rungs = sorted({h for name, h in solved if h < 0.005}, reverse=True)
    assert rungs == [0.005 / 2**k for k in range(1, len(rungs) + 1)]
    assert sorted(solved, reverse=True) == [("strang", h) for h in hs + rungs]


def test_global_reference_of_a_stiff_lie_study_stops_on_the_study_goal(monkeypatch):
    # the tableau's goal is 1% of the finest lie error, not 1e-10 relative:
    # 3 subject solves (175 steps) and 4 strang rungs from h = 0.005 (1,500
    # steps); a provisional 1e-10 reference first ran 10 solves, 12,875 steps
    solved = []
    real = diagnostics.integrate_fixed

    def counted(prob, scheme, f0, t0, t_end, h):
        state, traj = real(prob, scheme, f0, t0, t_end, h)
        solved.append(len(traj.records))
        return state, traj

    monkeypatch.setattr(diagnostics, "integrate_fixed", counted)
    prob, f = stiff_vdp()
    rep = convergence_study(prob, REG.scheme("lie"), f, 0.0, 0.5, [0.02, 0.01, 0.005],
                            norms=(0.0, 1.0), what=("global",))
    assert len(solved) <= 7 and sum(solved) <= 1675
    # the floor meets the error term of the study's goal in every norm
    for s in (0.0, 1.0):
        assert rep.ref_floor[s] <= 1e-2 * rep.global_[s][-1]


@pytest.mark.parametrize("calibrate", ["no", 1, None])
def test_efficiency_compare_reads_calibrate_as_a_flag_before_any_solve(monkeypatch, calibrate):
    # read as the CLI's compare.calibrate is, before any calibration trial
    import splitstep.control as control

    trials = []
    monkeypatch.setattr(control, "estimate_step", lambda *a, **kw: trials.append(a))
    with pytest.raises(ConfigError,
                       match=f"^calibrate: expected true or false, got {calibrate!r}$"):
        efficiency_compare(lin_prob(), REG.pair("lie-avg"), lin_state(), 0.0, 0.5,
                           StepControlConfig(tol=1e-6), calibrate=calibrate)
    assert trials == []
