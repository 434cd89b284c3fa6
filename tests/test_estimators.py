"""Paired local-error estimators: algebra, work accounting, asymptotics."""

import warnings

import numpy as np
import pytest

from _oracles import expm_dense

from splitstep import (
    ConfigError,
    DegeneratePairWarning,
    Field,
    SchemePair,
    SplittingScheme,
    TorusGrid,
    builtin_registry,
    compose_step,
    controller_norm,
    estimate_step,
    gray_scott_abc_problem,
    gray_scott_problem,
    initial_condition,
    linear_problem,
    quadrature_l2,
    to_modal,
    to_nodal,
)

REG = builtin_registry()
GRID = TorusGrid(1, 1.0, 16)


def linear_test_problem():
    # diffusion plus a genuinely varying potential: operators do not commute
    return linear_problem(GRID, diffusion=0.2, potential=lambda x: np.cos(np.pi * x))


def smooth_state(seed=0):
    rng = np.random.default_rng(seed)
    k = np.fft.fftfreq(16, d=1.0 / 16)
    coef = np.exp(-((k / 3.0) ** 2)) * (rng.normal(size=16) + 1j * rng.normal(size=16))
    u = np.fft.ifftn(coef).real
    return Field(GRID, u / np.max(np.abs(u)))


# ---------------------------------------------------------------------------
# norms


def test_controller_norm_l2_matches_quadrature_and_parseval():
    f = initial_condition("random_smooth", GRID, m=1, seed=3)
    a = controller_norm(f, "l2")
    b = controller_norm(to_modal(f), "l2")
    assert a == pytest.approx(quadrature_l2(f), rel=1e-14)
    assert a == pytest.approx(b, rel=1e-12)


def test_controller_norm_max():
    f = Field(GRID, np.linspace(-3.0, 2.0, 16))
    assert controller_norm(f, "max") == pytest.approx(3.0)
    with pytest.raises(ConfigError):
        controller_norm(f, "energy")


# ---------------------------------------------------------------------------
# embedded pairs


def test_embedded_matches_separate_steps_bitwise():
    prob = linear_test_problem()
    f = smooth_state(1)
    pair = REG.pair("emb23c")
    res = estimate_step(pair, prob, 0.03, f)
    u_int = compose_step(pair.integrator, prob, 0.03, f)
    u_ctl = compose_step(pair.controller, prob, 0.03, f)
    # stage sharing reuses the identical prefix computation, so the
    # values agree bitwise, not just approximately
    assert np.array_equal(to_nodal(res.u_next).data, to_nodal(u_int).data)
    assert np.array_equal(to_nodal(res.u_control).data, to_nodal(u_ctl).data)


def test_embedded_flow_eval_accounting():
    prob = linear_test_problem()
    f = smooth_state(2)
    pair = REG.pair("emb23c")
    # emb2c costs 6, comp3c costs 5; the shared first stage (2 letters)
    # is computed once: 6 + 5 - 2 = 9
    res = estimate_step(pair, prob, 0.02, f)
    assert res.flow_evals == 9

    unshared = SchemePair(
        "emb23c-naive", "embedded", pair.integrator, controller=pair.controller,
        shared_prefix_len=0,
    )
    res0 = estimate_step(unshared, prob, 0.02, f)
    assert res0.flow_evals == 11
    assert np.array_equal(res0.u_next.data, res.u_next.data)
    assert np.array_equal(res0.u_control.data, res.u_control.data)
    assert res0.est_norm == res.est_norm


# ---------------------------------------------------------------------------
# adjoint average and Milne


def test_adjoint_average_combination():
    prob = linear_test_problem()
    f = smooth_state(3)
    h = 0.05
    pair = REG.pair("lie-avg")
    res = estimate_step(pair, prob, h, f)
    ua = to_nodal(compose_step(REG.scheme("lie"), prob, h, f))
    ub = to_nodal(compose_step(REG.scheme("lie*"), prob, h, f))
    control = 0.5 * ua.data + 0.5 * ub.data
    assert np.array_equal(to_nodal(res.u_next).data, ua.data)
    assert np.array_equal(to_nodal(res.u_control).data, control)
    diff = Field(GRID, 1.0 * ua.data + -1.0 * control)
    assert res.est_norm == controller_norm(diff)


def test_milne_gamma_minus_one_identical_to_average():
    # gamma = -1 makes the Milne weights exactly (1/2, 1/2): the control
    # value and estimate must coincide with the adjoint average bitwise
    prob = linear_test_problem()
    for seed in range(5):
        f = smooth_state(seed)
        a = estimate_step(REG.pair("lie-avg"), prob, 0.07, f)
        m = estimate_step(REG.pair("lie-milne"), prob, 0.07, f)
        assert np.array_equal(a.u_control.data, m.u_control.data)
        assert np.array_equal(a.u_next.data, m.u_next.data)
        assert a.est_norm == m.est_norm


def test_milne_general_gamma_weights():
    prob = linear_test_problem()
    f = smooth_state(6)
    h = 0.05
    lie, lie_adj = REG.scheme("lie"), REG.scheme("lie*")
    pair = SchemePair("m2", "milne", lie, partner=lie_adj, gamma=2.0)
    res = estimate_step(pair, prob, h, f)
    ua = to_nodal(compose_step(lie, prob, h, f))
    ub = to_nodal(compose_step(lie_adj, prob, h, f))
    control = 2.0 * ua.data + -1.0 * ub.data  # -g/(1-g) = 2, 1/(1-g) = -1
    assert np.allclose(res.u_control.data, control, rtol=0, atol=1e-15)
    est_manual = controller_norm(Field(GRID, ua.data - control))
    assert res.est_norm == pytest.approx(est_manual, rel=1e-13)


def _problem_of_arity(arity):
    if arity == 2:
        return linear_test_problem(), smooth_state(11)
    grid = TorusGrid(1, 20.0, 16)
    return gray_scott_abc_problem(grid), initial_condition("random_smooth", grid, seed=2)


@pytest.mark.parametrize("pair_name", sorted(REG.pairs))
def test_integrator_value_is_the_plain_step_bitwise(pair_name):
    # the shared prefix and the suffix are the integrator's letters in
    # order, so callers may take u_next as S(h, u) itself
    pair = REG.pair(pair_name)
    prob, f = _problem_of_arity(pair.integrator.arity)
    res = estimate_step(pair, prob, 0.03, f)
    u = compose_step(pair.integrator, prob, 0.03, f)
    assert res.u_next.space == u.space
    assert np.array_equal(res.u_next.data, u.data)
    assert res.flow_evals == (
        pair.integrator.flow_evals + pair.second.flow_evals
        - len(pair.integrator.word(0, pair.shared_prefix_len))
    )
    if pair.gamma is None:
        # an embedded control value stays in the controller's own space
        ctl = compose_step(pair.controller, prob, 0.03, f)
        assert res.u_control.space == ctl.space
        assert np.array_equal(res.u_control.data, ctl.data)


def test_milne_stray_controller_still_uses_partner():
    prob = linear_test_problem()
    f = smooth_state(12)
    lie, lie_adj = REG.scheme("lie"), REG.scheme("lie*")
    plain = SchemePair("m2", "milne", lie, partner=lie_adj, gamma=2.0)
    stray = SchemePair("m2", "milne", lie, partner=lie_adj, gamma=2.0,
                       controller=REG.scheme("strang"), shared_prefix_len=1)
    a = estimate_step(plain, prob, 0.05, f)
    b = estimate_step(stray, prob, 0.05, f)
    assert np.array_equal(a.u_control.data, b.u_control.data)
    assert a.est_norm == b.est_norm and a.flow_evals == b.flow_evals


def test_embedded_stray_gamma_still_uses_controller():
    # gamma is the one Milne weight: an embedded pair must clear a stray
    # one, or it would run as a Milne pair over its controller
    prob = linear_test_problem()
    f = smooth_state(13)
    emb = REG.pair("emb23c")
    recipe = dict(controller=emb.controller, shared_prefix_len=emb.shared_prefix_len)
    plain = SchemePair("e", "embedded", emb.integrator, **recipe)
    stray = SchemePair("e", "embedded", emb.integrator, gamma=2.0, **recipe)
    assert stray.gamma is None
    a = estimate_step(plain, prob, 0.05, f)
    b = estimate_step(stray, prob, 0.05, f)
    assert a.u_control.space == b.u_control.space
    assert np.array_equal(a.u_control.data, b.u_control.data)
    assert a.est_norm == b.est_norm and a.flow_evals == b.flow_evals


def test_degenerate_pair_estimates_zero():
    fake = SplittingScheme("fake_odd", 1, REG.scheme("strang").stages)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegeneratePairWarning)
        pair = SchemePair("degen", "milne", fake)
    res = estimate_step(pair, linear_test_problem(), 0.05, smooth_state(7))
    assert res.est_norm == 0.0


def test_pair_problem_arity_mismatch():
    with pytest.raises(ConfigError):
        estimate_step(REG.pair("lie3-avg"), linear_test_problem(), 0.01, smooth_state(8))


# ---------------------------------------------------------------------------
# estimator asymptotics on the linear problem


def _dense_generator(prob, grid):
    # assemble the full operator matrix column by column
    n = grid.n
    M = np.empty((n, n), dtype=np.complex128)
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        M[:, j] = to_nodal(prob.full_rhs(Field(grid, e))).data[0]
    return M


@pytest.mark.parametrize(
    "pair_name,p",
    [("lie-avg", 1), ("lie-milne", 1), ("emb23c", 2), ("comp3c-avg", 3)],
)
def test_estimate_decays_at_order_p_plus_one(pair_name, p):
    prob = linear_test_problem()
    f = smooth_state(9)
    pair = REG.pair(pair_name)
    hs = (0.004, 0.002, 0.001)
    ests = [estimate_step(pair, prob, h, f).est_norm for h in hs]
    slopes = np.diff(np.log(ests)) / np.diff(np.log(hs))
    assert abs(slopes[-1] - (p + 1)) <= 0.1, (pair_name, slopes)


def test_estimate_tracks_true_error_of_lie():
    # exact flow via the dense matrix exponential of diffusion + potential
    prob = linear_test_problem()
    f = smooth_state(10)
    M = _dense_generator(prob, GRID)
    pair = REG.pair("lie-avg")
    for h in (2e-3, 1e-3):
        exact = Field(GRID, expm_dense(M * h) @ f.data[0])
        res = estimate_step(pair, prob, h, f)
        true_err = controller_norm(Field(GRID, to_nodal(res.u_next).data[0] - exact.data[0]))
        assert res.est_norm / true_err == pytest.approx(1.0, abs=0.1)
