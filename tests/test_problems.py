"""Flow correctness for the model problems.

Every closed-form flow is integrated against a naive RK4 oracle built
directly from the defining ODE (mode-wise for the linear operators,
node-wise for the pointwise reactions), step 1e-6, on batches of random
states.  Semigroup and identity properties are checked separately.
"""

import warnings

import numpy as np
import pytest

from _oracles import rk4

from splitstep import (
    BlowUpError,
    Field,
    GrayScottParams,
    RepresentationError,
    TorusGrid,
    UnderResolvedWarning,
    UnstableStepError,
    VdpParams,
    builtin_registry,
    compose_step,
    gray_scott_abc_problem,
    gray_scott_problem,
    gs_commutator,
    initial_condition,
    linear_problem,
    quadrature_l2,
    to_modal,
    to_nodal,
    van_der_pol_problem,
)
from splitstep.problems import (
    _FLOW_TIMES,
    _gs_factor,
    _gs_symbol,
    _kappa_sq,
    _linear_factor,
    _linear_symbol,
    _nodal,
    _vdp_factors,
    _vdp_symbol,
    gs_linear_flow,
    gs_reaction_b_flow,
    gs_reaction_c_flow,
    gs_reaction_flow_rk4,
    vdp_linear_flow,
    vdp_reaction_flow,
)
from splitstep.spectral import NODAL

GRID1 = TorusGrid(1, 1.0, 16)
GS = GrayScottParams()


def random_states(grid, n_states, seed, scale=0.6, offset=0.4):
    """Batch of positive random nodal states, shape (n_states, 2) + grid.shape."""
    rng = np.random.default_rng(seed)
    return offset + scale * rng.random((n_states, 2) + grid.shape)


def rel_err(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# closed-form flows vs RK4 oracle, step 1e-6, 10 random states
# ---------------------------------------------------------------------------

def test_gs_linear_flow_vs_mode_oracle():
    # A is diagonal per mode except the forced mean; integrate the modal ODE
    # c_u' = (-c1*kappa^2 - alpha)*c_u + alpha*delta_k0 directly.
    t = 0.01
    k = np.fft.fftfreq(GRID1.n, d=1.0 / GRID1.n)
    lam_u = -GS.c1 * (np.pi / GRID1.a) ** 2 * k**2 - GS.alpha
    lam_v = -GS.c2 * (np.pi / GRID1.a) ** 2 * k**2 - GS.beta
    forcing = np.zeros_like(k)
    forcing[0] = GS.alpha

    def rhs(c):
        out = np.empty_like(c)
        out[:, 0] = lam_u * c[:, 0] + forcing
        out[:, 1] = lam_v * c[:, 1]
        return out

    states = random_states(GRID1, 10, seed=1)
    c0 = np.stack([to_modal(Field(GRID1, s)).data for s in states])
    ref = rk4(rhs, c0.astype(np.complex128), t, 10_000)
    for i, s in enumerate(states):
        got = gs_linear_flow(t, Field(GRID1, s), GS).data
        assert rel_err(got, ref[i]) <= 1e-9


def test_gs_reaction_b_flow_vs_pointwise_oracle():
    t = 0.05
    states = random_states(GRID1, 10, seed=2)

    def rhs(y):  # u' = 0, v' = u*v^2
        out = np.zeros_like(y)
        out[:, 1] = y[:, 0] * y[:, 1] ** 2
        return out

    ref = rk4(rhs, states.copy(), t, 50_000)
    for i, s in enumerate(states):
        got = gs_reaction_b_flow(t, Field(GRID1, s)).data.real
        assert rel_err(got, ref[i]) <= 1e-9


def test_gs_reaction_c_flow_vs_pointwise_oracle():
    t = 0.05
    states = random_states(GRID1, 10, seed=3)

    def rhs(y):  # u' = -u*v^2, v' = 0
        out = np.zeros_like(y)
        out[:, 0] = -y[:, 0] * y[:, 1] ** 2
        return out

    ref = rk4(rhs, states.copy(), t, 50_000)
    for i, s in enumerate(states):
        got = gs_reaction_c_flow(t, Field(GRID1, s)).data.real
        assert rel_err(got, ref[i]) <= 1e-9


def test_gs_reaction_rk4_flow_vs_fine_oracle():
    # the RK4 inner propagator is not exact; a single 0.01 substep must
    # still sit within 1e-9 of the fine-step solution
    t = 0.01
    states = random_states(GRID1, 10, seed=4)

    def rhs(y):
        w = y[:, 0] * y[:, 1] ** 2
        return np.stack([-w, w], axis=1)

    ref = rk4(rhs, states.copy(), t, 10_000)
    for i, s in enumerate(states):
        got = gs_reaction_flow_rk4(t, Field(GRID1, s)).data.real
        assert rel_err(got, ref[i]) <= 1e-9


def test_vdp_linear_flow_vs_mode_oracle():
    t = 0.01
    p = VdpParams(eps=1e-2, du=1.0, dv=0.5)
    k = np.fft.fftfreq(GRID1.n, d=1.0 / GRID1.n)
    kap2 = (np.pi / GRID1.a) ** 2 * k**2
    m11, m12 = -p.du * kap2, 1.0
    m21, m22 = -1.0 / p.eps, -p.dv * kap2 + 1.0 / p.eps

    def rhs(c):
        out = np.empty_like(c)
        out[:, 0] = m11 * c[:, 0] + m12 * c[:, 1]
        out[:, 1] = m21 * c[:, 0] + m22 * c[:, 1]
        return out

    states = random_states(GRID1, 10, seed=5)
    c0 = np.stack([to_modal(Field(GRID1, s)).data for s in states])
    ref = rk4(rhs, c0.astype(np.complex128), t, 10_000)
    for i, s in enumerate(states):
        got = vdp_linear_flow(t, Field(GRID1, s), p).data
        assert rel_err(got, ref[i]) <= 1e-9


def test_vdp_linear_flow_defective_mode_series():
    # eps = 1/4 with du = dv makes delta = 0 on every mode: the 2x2 block is
    # defective and the series fallback carries the whole answer
    t = 0.02
    p = VdpParams(eps=0.25, du=1.0, dv=1.0)
    k = np.fft.fftfreq(GRID1.n, d=1.0 / GRID1.n)
    kap2 = (np.pi / GRID1.a) ** 2 * k**2
    m11, m22 = -p.du * kap2, -p.dv * kap2 + 4.0

    def rhs(c):
        out = np.empty_like(c)
        out[:, 0] = m11 * c[:, 0] + c[:, 1]
        out[:, 1] = -4.0 * c[:, 0] + m22 * c[:, 1]
        return out

    states = random_states(GRID1, 5, seed=6)
    c0 = np.stack([to_modal(Field(GRID1, s)).data for s in states])
    ref = rk4(rhs, c0.astype(np.complex128), t, 20_000)
    for i, s in enumerate(states):
        got = vdp_linear_flow(t, Field(GRID1, s), p).data
        assert rel_err(got, ref[i]) <= 1e-9


def test_vdp_reaction_flow_vs_pointwise_oracle():
    t = 0.02
    p = VdpParams(eps=0.5)
    states = random_states(GRID1, 10, seed=7)

    def rhs(y):
        out = np.zeros_like(y)
        out[:, 1] = -y[:, 0] ** 2 * y[:, 1] / p.eps
        return out

    ref = rk4(rhs, states.copy(), t, 20_000)
    for i, s in enumerate(states):
        got = vdp_reaction_flow(t, Field(GRID1, s), p).data.real
        assert rel_err(got, ref[i]) <= 1e-9


def test_gs_a_flow_matches_rhs_route():
    # close the loop between flows[0] and rhs[0]: march the library's own
    # A right-hand side (FFT route) with RK4 and compare to the exact flow
    grid = TorusGrid(1, 1.0, 8)
    prob = gray_scott_problem(grid, GS)
    f0 = Field(grid, random_states(grid, 1, seed=8)[0])
    t = 0.005
    ref = rk4(prob.rhs[0], f0, t, 5_000)
    got = to_nodal(prob.flows[0](t, f0))
    assert rel_err(got.data, ref.data) <= 1e-9


def test_vdp_a_flow_matches_rhs_route():
    grid = TorusGrid(1, 1.0, 8)
    p = VdpParams(eps=0.1)
    prob = van_der_pol_problem(grid, p)
    f0 = Field(grid, random_states(grid, 1, seed=9)[0])
    t = 0.005
    ref = rk4(prob.rhs[0], f0, t, 5_000)
    got = to_nodal(prob.flows[0](t, f0))
    assert rel_err(got.data, ref.data) <= 1e-9


def cos_potential_problem(grid):
    return linear_problem(grid, diffusion=0.2, potential=lambda x: np.cos(np.pi * x))


@pytest.mark.parametrize(
    "make,slot",
    [
        (lambda grid: gray_scott_problem(grid, GS), 1),
        (cos_potential_problem, 0),
        (cos_potential_problem, 1),
    ],
    ids=["gray_scott_rk4_reaction", "linear_a", "linear_b"],
)
def test_factory_flow_matches_rhs_route(make, slot):
    # the same loop for the slots no other test checks through a factory
    grid = TorusGrid(1, 1.0, 8)
    prob = make(grid)
    f0 = Field(grid, random_states(grid, 1, seed=14)[0][: prob.m])
    t = 0.005
    ref = rk4(prob.rhs[slot], f0, t, 5_000)
    got = to_nodal(prob.flows[slot](t, f0))
    assert rel_err(got.data, ref.data) <= 1e-9


def test_symbol_caches_are_keyed_by_grid_and_read_only():
    from splitstep.problems import _gs_symbol, _kappa_sq, _vdp_symbol

    caches = (_kappa_sq, _gs_symbol, _vdp_symbol)
    # same n, different half-width: a cache keyed on the shape alone would
    # hand grid B the symbol of grid A without any shape error
    grid_a, grid_b = TorusGrid(1, 1.0, 16), TorusGrid(1, 2.0, 16)
    vdp = VdpParams(eps=0.1)
    flows = [
        lambda t, f: gs_linear_flow(t, f, GS),
        lambda t, f: vdp_linear_flow(t, f, vdp),
        lambda t, f: linear_problem(f.grid, diffusion=0.2).flows[0](t, f),
    ]
    states = {g: Field(g, random_states(g, 1, seed=15)[0]) for g in (grid_a, grid_b)}
    t = 0.01 + 0.005j

    def fresh(flow, grid):
        for cache in caches:
            cache.cache_clear()
        return flow(t, states[grid]).data

    for flow in flows:
        want = {g: fresh(flow, g) for g in (grid_a, grid_b)}
        for g in (grid_a, grid_b, grid_a):
            assert np.array_equal(flow(t, states[g]).data, want[g])

    cached = [_kappa_sq(grid_a), _gs_symbol(grid_a, GS), *_vdp_symbol(grid_a, vdp)]
    for arr in cached:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0.0


# ---------------------------------------------------------------------------
# flow factor caches: per (grid, params, t), bounded, read-only
# ---------------------------------------------------------------------------

VDP = VdpParams(eps=0.1)


def gs_flow_inline(t, f, p):
    out = to_modal(f).data * np.exp(_gs_symbol(f.grid, p) * t)
    out[(0,) * (f.grid.dim + 1)] += 1.0 - np.exp(-p.alpha * t)
    return out


def vdp_flow_inline(t, f, p):
    # the per-call formula the cached factors replace, kept as the reference
    c = to_modal(f).data
    kap2 = _kappa_sq(f.grid)
    m11 = -p.du * kap2
    lap_v = -p.dv * kap2
    m22 = lap_v + 1.0 / p.eps
    disc = np.asarray(0.25 * (m11 - m22) ** 2 - 1.0 / p.eps, dtype=np.complex128)
    tau, delta = 0.5 * (m11 + m22), np.sqrt(disc)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ep = np.exp((tau + delta) * t)
        em = np.exp((tau - delta) * t)
        cos_part = 0.5 * (ep + em)
        dt_small = np.abs(delta * t) < 1e-6
        series = t * np.exp(tau * t) * (1.0 + (delta * t) ** 2 / 6.0)
        sin_part = np.where(dt_small, series, (ep - em) / (2.0 * delta))
        e11 = cos_part + sin_part * (m11 - tau)
        e21 = sin_part * (-1.0 / p.eps)
        e22 = cos_part + sin_part * (m22 - tau)
        return np.stack([e11 * c[0] + sin_part * c[1], e21 * c[0] + e22 * c[1]])


def linear_flow_inline(t, f, diffusion):
    lam = -diffusion * _kappa_sq(f.grid)
    return to_modal(f).data * np.exp(lam * t)


# (flow, its inline formula, its factor cache, factor arguments after the grid)
MODAL_FLOWS = {
    "gs": (lambda t, f: gs_linear_flow(t, f, GS), lambda t, f: gs_flow_inline(t, f, GS),
           _gs_factor, (GS,)),
    "vdp": (lambda t, f: vdp_linear_flow(t, f, VDP), lambda t, f: vdp_flow_inline(t, f, VDP),
            _vdp_factors, (VDP,)),
    "linear": (lambda t, f: linear_problem(f.grid, diffusion=0.2).flows[0](t, f),
               lambda t, f: linear_flow_inline(t, f, 0.2), _linear_factor, (0.2,)),
}
ALL_CACHES = (_kappa_sq, _gs_symbol, _vdp_symbol, _linear_symbol,
              _gs_factor, _vdp_factors, _linear_factor)


def clear_caches():
    for cache in ALL_CACHES:
        cache.cache_clear()


def modal_state(name, grid, seed):
    # the linear problem has one component, the others two
    return Field(grid, random_states(grid, 1, seed)[0][:1 if name == "linear" else 2])


@pytest.mark.parametrize("name", MODAL_FLOWS)
def test_modal_flow_is_bitwise_its_inline_formula(name):
    flow, inline, _, _ = MODAL_FLOWS[name]
    grid_a, grid_b = TorusGrid(1, 1.0, 16), TorusGrid(1, 2.0, 16)
    states = {g: modal_state(name, g, seed=16) for g in (grid_a, grid_b)}
    times = (0.01, 0.01 + 0.005j)
    want = {}
    for t in times:
        for g in (grid_a, grid_b):
            clear_caches()
            want[t, g] = inline(t, states[g])
    clear_caches()
    # no clearing from here on: every call after the first per (grid, t)
    # is served from the caches, and a t or grid missing from a cache key
    # hands one call another's factors
    for t in times:
        for g in (grid_a, grid_b, grid_a):
            got = flow(t, states[g]).data
            assert got.dtype == want[t, g].dtype
            assert np.array_equal(got, want[t, g]), (t, g)


@pytest.mark.parametrize("name", MODAL_FLOWS)
def test_cached_factors_refuse_writes(name):
    _, _, cache, args = MODAL_FLOWS[name]
    out = cache(GRID1, *args, 0.01 + 0.002j)
    for arr in out if isinstance(out, tuple) else (out,):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0.0


@pytest.mark.parametrize("name", MODAL_FLOWS)
def test_factor_cache_holds_at_most_flow_times_entries(name):
    flow, _, cache, _ = MODAL_FLOWS[name]
    f0 = modal_state(name, GRID1, seed=17)
    clear_caches()
    for i in range(1, 6):
        flow(0.01 * i, f0)
    assert cache.cache_info().maxsize == _FLOW_TIMES == 3
    assert cache.cache_info().currsize == 3


@pytest.mark.parametrize("name", MODAL_FLOWS)
def test_float_and_complex_t_of_equal_value_do_not_share_an_entry(name):
    _, _, cache, args = MODAL_FLOWS[name]
    clear_caches()
    real = cache(GRID1, *args, 0.01)
    cplx = cache(GRID1, *args, complex(0.01))
    assert cache.cache_info().currsize == 2
    if name != "vdp":  # the vdp factors are complex for either t
        assert real.dtype == np.float64 and cplx.dtype == np.complex128


@pytest.mark.parametrize("name", MODAL_FLOWS)
def test_refused_time_leaves_the_factor_cache_untouched(name):
    flow, _, cache, _ = MODAL_FLOWS[name]
    f0 = modal_state(name, GRID1, seed=18)
    clear_caches()
    flow(0.01, f0)
    before = cache.cache_info()
    for t in (-1e-3, -1e-3 + 0.5j):
        with pytest.raises(UnstableStepError):
            flow(t, f0)
    assert cache.cache_info() == before


# eps = 1, du = 0, dv = 3 on [-pi, pi): kap2 = k^2, and at k = +-1 the
# discriminant 0.25*(m11 - m22)^2 - 1/eps is exactly 0, so delta = 0 there
NEAR_DEFECTIVE = VdpParams(eps=1.0, du=0.0, dv=3.0)
GRID_PI = TorusGrid(1, np.pi, 16)


def vdp_factors_inline(grid, p, t, half=False):
    # the formula of vdp_flow_inline, series and all, on either layout's modes;
    # the half layout keeps the real part
    kap2 = _kappa_sq(grid, half)
    m11 = -p.du * kap2
    lap_v = -p.dv * kap2
    m22 = lap_v + 1.0 / p.eps
    disc = np.asarray(0.25 * (m11 - m22) ** 2 - 1.0 / p.eps, dtype=np.complex128)
    tau, delta = 0.5 * (m11 + m22), np.sqrt(disc)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ep = np.exp((tau + delta) * t)
        em = np.exp((tau - delta) * t)
        cos_part = 0.5 * (ep + em)
        dt_small = np.abs(delta * t) < 1e-6
        series = t * np.exp(tau * t) * (1.0 + (delta * t) ** 2 / 6.0)
        sin_part = np.where(dt_small, series, (ep - em) / (2.0 * delta))
        out = (cos_part + sin_part * (m11 - tau), sin_part, sin_part * (-1.0 / p.eps),
               cos_part + sin_part * (m22 - tau))
    return tuple(e.real for e in out) if half else out


@pytest.mark.parametrize("t, series_modes", [
    (1e-9, {False: 16, True: 9}),   # every mode
    (0.013, {False: 2, True: 1}),   # k = +-1 only
    (0.013 + 0.004j, {False: 2}),   # a complex t runs in the full layout
])
def test_vdp_near_defective_modes_are_bitwise_the_series_formula(t, series_modes):
    p, grid = NEAR_DEFECTIVE, GRID_PI
    for half, count in series_modes.items():
        delta = _vdp_symbol(grid, p, half)[3]
        assert np.count_nonzero(np.abs(delta * t) < 1e-6) == count
        clear_caches()
        for got, want in zip(_vdp_factors(grid, p, t, half), vdp_factors_inline(grid, p, t, half)):
            assert got.dtype == want.dtype and np.array_equal(got, want), half
    u = random_states(grid, 1, seed=23)[0]
    for f in (Field._of(grid, u.copy(), NODAL), Field(grid, u)):
        clear_caches()
        got = vdp_linear_flow(t, f, p).data
        # a real state under a complex t widens: the complex state's path
        c = to_modal(Field(grid, u) if isinstance(t, complex) else f)
        e11, e12, e21, e22 = vdp_factors_inline(grid, p, t, c.is_real)
        want = np.stack([e11 * c.data[0] + e12 * c.data[1], e21 * c.data[0] + e22 * c.data[1]])
        assert got.dtype == want.dtype and np.array_equal(got, want), f.is_real


@pytest.mark.parametrize("kernel, m", [
    (lambda u: (2.0 * u,), 1),
    (lambda u: (u * np.exp(0.3j * u),), 1),
    (lambda u, v: (u, v * np.exp(-0.2j * u)), 2),  # float64 and complex128 components
    (lambda u, v: (np.zeros_like(u), u * v), 2),
])
def test_nodal_assembles_components_as_np_stack_does(kernel, m):
    u = random_states(GRID1, 1, seed=29)[0][:m]
    for data in (u, u.astype(np.complex128)):
        want = np.stack(kernel(*data))
        got = _nodal(Field._of(GRID1, data.copy(), NODAL), "test kernel", kernel).data
        assert got.shape == want.shape == (m,) + GRID1.shape
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_one_component_nodal_flow_keeps_its_shape_and_real_dtype():
    prob = linear_problem(GRID1, potential=np.cos)
    f = Field._of(GRID1, random_states(GRID1, 1, seed=31)[0][:1], NODAL)
    for t, dtype in ((0.01, np.float64), (0.01 + 0.002j, np.complex128)):
        out = prob.flows[1](t, f)
        assert out.data.shape == (1,) + GRID1.shape and out.data.dtype == dtype


@pytest.mark.parametrize("scheme", sorted(builtin_registry().schemes))
def test_second_fixed_step_finds_every_a_factor_cached(scheme):
    # a fixed-step run repeats every A-time of the step on the next one;
    # the cache must hold all of them (comp3c and emb2c have three)
    scheme = builtin_registry().scheme(scheme)
    grid = TorusGrid(1, 1.0, 16)
    make = gray_scott_problem if scheme.arity == 2 else gray_scott_abc_problem
    prob = make(grid, GS)
    f = Field(grid, random_states(grid, 1, seed=19)[0])
    a_flows = sum(1 for slot, _ in scheme.word() if slot == 0)
    clear_caches()
    f = compose_step(scheme, prob, 0.02, f)
    times = _gs_factor.cache_info().misses
    assert times <= _FLOW_TIMES
    compose_step(scheme, prob, 0.02, f)
    info = _gs_factor.cache_info()
    assert info.misses == times
    assert info.hits == (a_flows - times) + a_flows


# ---------------------------------------------------------------------------
# semigroup, identity, complex times
# ---------------------------------------------------------------------------

ANALYTIC_FLOWS = [
    ("gs_linear", lambda t, f: gs_linear_flow(t, f, GS)),
    ("gs_b", lambda t, f: gs_reaction_b_flow(t, f)),
    ("gs_c", lambda t, f: gs_reaction_c_flow(t, f)),
    ("vdp_linear", lambda t, f: vdp_linear_flow(t, f, VdpParams(eps=0.1))),
    ("vdp_reaction", lambda t, f: vdp_reaction_flow(t, f, VdpParams(eps=0.1))),
]


@pytest.mark.parametrize("name,flow", ANALYTIC_FLOWS)
def test_semigroup_property(name, flow):
    f0 = Field(GRID1, random_states(GRID1, 1, seed=10)[0])
    t1, t2 = 0.013, 0.029
    once = to_nodal(flow(t1 + t2, f0))
    twice = to_nodal(flow(t2, flow(t1, f0)))
    assert np.max(np.abs(once.data - twice.data)) <= 1e-11


@pytest.mark.parametrize("name,flow", ANALYTIC_FLOWS)
def test_flow_at_zero_is_identity(name, flow):
    f0 = Field(GRID1, random_states(GRID1, 1, seed=11)[0])
    out = to_nodal(flow(0.0, f0))
    assert np.max(np.abs(out.data - f0.data)) <= 1e-15


def test_complex_time_semigroup():
    # conjugate complex substeps recombine to the real step: needed by the
    # complex-coefficient compositions
    gamma = 0.5 + 0.5j / np.sqrt(3.0)
    f0 = Field(GRID1, random_states(GRID1, 1, seed=12)[0])
    h = 0.05
    for name, flow in ANALYTIC_FLOWS:
        once = to_nodal(flow(h, f0))
        twice = to_nodal(flow(np.conj(gamma) * h, flow(gamma * h, f0)))
        assert np.max(np.abs(once.data - twice.data)) <= 1e-11, name


def test_diffusive_flows_refuse_backward_time():
    f0 = Field(GRID1, random_states(GRID1, 1, seed=13)[0])
    with pytest.raises(UnstableStepError):
        gs_linear_flow(-1e-3, f0, GS)
    with pytest.raises(UnstableStepError):
        vdp_linear_flow(-1e-3 + 0.5j, f0, VdpParams())
    with pytest.raises(UnstableStepError):
        linear_problem(GRID1).flows[0](-0.1, Field(GRID1, np.ones(16)))
    # purely imaginary time has Re(t) = 0 and is allowed
    gs_linear_flow(1e-3j, f0, GS)


# ---------------------------------------------------------------------------
# reaction specifics
# ---------------------------------------------------------------------------

def test_rk4_flow_conserves_u_plus_v():
    for seed in range(3):
        f0 = Field(GRID1, random_states(GRID1, 1, seed=seed)[0])
        before = f0.data[0] + f0.data[1]
        out = gs_reaction_flow_rk4(0.37, f0)  # forces 4 substeps
        after = out.data[0] + out.data[1]
        assert np.max(np.abs(after - before)) <= 1e-14


def test_rk4_flow_substep_refinement_is_fourth_order():
    f0 = Field(GRID1, random_states(GRID1, 1, seed=20, scale=1.0)[0])
    t = 0.8
    ref = gs_reaction_flow_rk4(t, f0, substep=1e-3).data
    errs = [
        np.max(np.abs(gs_reaction_flow_rk4(t, f0, substep=s).data - ref))
        for s in (0.2, 0.1, 0.05)
    ]
    assert 12.0 <= errs[0] / errs[1] <= 20.0
    assert 12.0 <= errs[1] / errs[2] <= 20.0


def test_riccati_pole_raises():
    f0 = Field(GRID1, np.stack([np.ones(16), np.ones(16)]))
    with pytest.raises(BlowUpError):
        gs_reaction_b_flow(1.0, f0)  # denominator hits zero
    with pytest.raises(BlowUpError):
        gs_reaction_b_flow(1.0 - 5e-9, f0)  # inside the 1e-8 guard
    out = gs_reaction_b_flow(0.5, f0)  # clearly before the pole
    assert out.data[1][0] == pytest.approx(2.0)


def test_overflowing_flow_raises_blow_up():
    f0 = Field(GRID1, np.stack([np.full(16, 50.0), np.ones(16)]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(BlowUpError):
            vdp_reaction_flow(-2.0, f0, VdpParams(eps=1e-3))


def _state(u0, v0):
    return Field(GRID1, np.stack([np.full(16, u0), np.full(16, v0)]))


@pytest.mark.parametrize("what, flow, f", [
    ("vdp_linear_flow", lambda f: vdp_linear_flow(1e3, f, VdpParams(eps=1e-3)), _state(0.5, 0.1)),
    ("vdp_reaction_flow", lambda f: vdp_reaction_flow(-2.0, f, VdpParams(eps=1e-3)),
     _state(50.0, 1.0)),
    ("gs_reaction_c_flow", lambda f: gs_reaction_c_flow(-1e3, f), _state(1.0, 10.0)),
    ("gs_reaction_flow_rk4", lambda f: gs_reaction_flow_rk4(10.0, f), _state(1e3, 1e3)),
    ("linear_problem B-flow",
     lambda f: linear_problem(GRID1, potential=lambda x: 1e3 + 0.0 * x).flows[1](1.0, f),
     Field(GRID1, np.ones(16))),
])
def test_every_guarded_flow_turns_overflow_into_blow_up_naming_it(what, flow, f):
    # one guard for every flow: no RuntimeWarning escapes, the error names the flow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowUpError, match=what):
            flow(f)


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

def test_gs_full_rhs_matches_hand_assembly():
    from splitstep import apply_symbol, laplacian_symbol

    grid = TorusGrid(1, 1.0, 32)
    f0 = initial_condition("gs_bump", grid)
    prob = gray_scott_problem(grid, GS)
    got = to_nodal(prob.full_rhs(f0)).data

    lap = lambda comp: to_nodal(
        apply_symbol(to_modal(Field(grid, comp)), lambda *k: laplacian_symbol(grid))
    ).data[0]
    u, v = f0.data[0], f0.data[1]
    ref_u = GS.c1 * lap(u) - u * v**2 + GS.alpha * (1.0 - u)
    ref_v = GS.c2 * lap(v) + u * v**2 - GS.beta * v
    assert np.max(np.abs(got[0] - ref_u)) <= 1e-12
    assert np.max(np.abs(got[1] - ref_v)) <= 1e-12


def test_abc_split_sums_to_same_rhs():
    grid = TorusGrid(1, 1.0, 32)
    f0 = initial_condition("gs_bump", grid)
    two = gray_scott_problem(grid, GS)
    three = gray_scott_abc_problem(grid, GS)
    assert three.arity == 3 and two.arity == 2
    d = to_nodal(two.full_rhs(f0)) - to_nodal(three.full_rhs(f0))
    assert np.max(np.abs(d.data)) <= 1e-13


def test_vdp_full_rhs_matches_hand_assembly():
    from splitstep import apply_symbol, laplacian_symbol

    grid = TorusGrid(1, 1.0, 32)
    p = VdpParams(eps=0.05, du=1.0, dv=0.7)
    f0 = initial_condition("vdp_gaussians", grid)
    prob = van_der_pol_problem(grid, p)
    got = to_nodal(prob.full_rhs(f0)).data

    lap = lambda comp: to_nodal(
        apply_symbol(to_modal(Field(grid, comp)), lambda *k: laplacian_symbol(grid))
    ).data[0]
    u, v = f0.data[0], f0.data[1]
    ref_u = p.du * lap(u) + v
    ref_v = p.dv * lap(v) + ((1.0 - u**2) * v - u) / p.eps
    assert np.max(np.abs(got[0] - ref_u)) <= 1e-11
    assert np.max(np.abs(got[1] - ref_v)) <= 1e-11


# ---------------------------------------------------------------------------
# commutator
# ---------------------------------------------------------------------------

def constant_field(u0, v0, grid=GRID1):
    return Field(grid, np.stack([np.full(grid.shape, u0), np.full(grid.shape, v0)]))


def test_commutator_on_unit_constants():
    # closed form on constants: ( alpha + alpha*v^2 - 2*beta*u*v^2,
    #                             (alpha+beta)*u*v^2 - alpha*v^2 )
    out = gs_commutator(constant_field(1.0, 1.0), GS)
    assert np.allclose(out.data[0], -0.152, rtol=0, atol=1e-14)
    assert np.allclose(out.data[1], 0.114, rtol=0, atol=1e-14)


def test_commutator_on_random_constants():
    rng = np.random.default_rng(30)
    for _ in range(5):
        u0, v0 = rng.random(2)
        out = gs_commutator(constant_field(u0, v0), GS)
        c1 = GS.alpha + GS.alpha * v0**2 - 2.0 * GS.beta * u0 * v0**2
        c2 = (GS.alpha + GS.beta) * u0 * v0**2 - GS.alpha * v0**2
        assert np.allclose(out.data[0], c1, rtol=0, atol=1e-13)
        assert np.allclose(out.data[1], c2, rtol=0, atol=1e-13)


def test_commutator_degenerate_states():
    # U = 0 and v = 0 both leave only the affine feed: [A,B](U) = (alpha, 0)
    for f in (constant_field(0.0, 0.0), constant_field(0.7, 0.0)):
        out = gs_commutator(f, GS)
        assert np.allclose(out.data[0], GS.alpha, rtol=0, atol=1e-14)
        assert np.allclose(out.data[1], 0.0, rtol=0, atol=1e-14)


def test_commutator_warns_when_under_resolved():
    grid = TorusGrid(1, 1.0, 32)
    x = grid.axis()
    rough = Field(grid, np.stack([0.5 + 0.3 * np.cos(12 * np.pi * x), 0.1 + 0 * x]))
    with pytest.warns(UnderResolvedWarning):
        gs_commutator(rough, GS)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def test_presets_basic_shapes():
    grid = TorusGrid(2, 1.0, 16)
    f = initial_condition("gs_bump", grid)
    assert f.m == 2 and f.data.shape == (2, 16, 16)
    assert np.all(f.data.real > 0)
    g = initial_condition("gs_rough", grid)
    assert g.m == 2
    assert np.max(np.abs(g.data[0].real - 0.5)) == pytest.approx(0.2)
    again = initial_condition("gs_rough", grid)
    assert np.array_equal(g.data, again.data)  # seeded, reproducible


def test_vdp_preset_requires_1d():
    f = initial_condition("vdp_gaussians", TorusGrid(1, 4.0, 32))
    assert f.m == 2
    with pytest.raises(RepresentationError):
        initial_condition("vdp_gaussians", TorusGrid(2, 4.0, 16))


def test_unknown_preset_rejected():
    with pytest.raises(RepresentationError):
        initial_condition("no_such_state", GRID1)


def test_random_smooth_is_smooth_and_seeded():
    from splitstep import modal_tail_fraction

    grid = TorusGrid(1, 1.0, 32)
    f = initial_condition("random_smooth", grid, m=2, seed=5)
    g = initial_condition("random_smooth", grid, m=2, seed=5)
    assert np.array_equal(f.data, g.data)
    assert modal_tail_fraction(f) < 1e-6
    assert quadrature_l2(f) > 0
