"""The real layout: float64 samples and Hermitian half spectra.

A real state and the same state in the complex layout must give the same
numbers up to roundoff through every transform, norm, operator and word;
a complex time or weight widens the real state; the CLI runs real initial
states in the real layout with the same step counts as the complex path.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splitstep import (
    Field,
    GrayScottParams,
    TorusGrid,
    VdpParams,
    apply_symbol,
    builtin_registry,
    compose_step,
    dealias_23,
    derivative_symbol,
    gray_scott_abc_problem,
    gray_scott_problem,
    initial_condition,
    modal_tail_fraction,
    quadrature_l2,
    read_field,
    sobolev_norm,
    to_modal,
    to_nodal,
    van_der_pol_problem,
)
from splitstep import cli
from splitstep.estimators import estimate_step
from splitstep.problems import _vdp_factors, gs_linear_flow, vdp_linear_flow
from splitstep.schemes import apply_word
from splitstep.spectral import MODAL, NODAL, _real, _widen

REG = builtin_registry()
GRIDS = [TorusGrid(1, 1.0, 16), TorusGrid(1, 2.0, 64), TorusGrid(2, 1.5, 8),
         TorusGrid(2, 1.0, 16), TorusGrid(3, 1.0, 4), TorusGrid(3, 2.0, 8)]


def real_pair(grid, m=2, seed=0, smooth=False):
    """The same real samples in the real and in the complex layout."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((m,) + grid.shape)
    if smooth:
        u = to_nodal(dealias_23(Field._of(grid, u, NODAL))).data
    return Field._of(grid, u, NODAL), Field(grid, u)


def rel(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def nodal(f):
    return to_nodal(_widen(f)).data


layouts = st.tuples(st.sampled_from(GRIDS), st.integers(1, 2), st.integers(0, 2**16),
                    st.booleans())


# ---------------------------------------------------------------------------
# spectral layer


@settings(max_examples=40, deadline=None)
@given(layouts)
def test_real_field_round_trips_and_norms_agree_between_layouts(case):
    grid, m, seed, smooth = case
    fr, fc = real_pair(grid, m, seed, smooth)
    cr, cc = to_modal(fr), to_modal(fc)
    assert fr.is_real and cr.is_real and not fc.is_real and not cc.is_real
    assert cr.data.shape == (m,) + grid.shape[:-1] + (grid.n // 2 + 1,)
    back = to_nodal(cr)
    assert back.data.dtype == np.float64
    assert rel(back.data, fr.data) <= 1e-14
    # the half spectrum is the first n/2+1 columns of the full one
    assert rel(cr.data, cc.data[..., : grid.n // 2 + 1]) <= 1e-14
    assert rel(_widen(cr).data, cc.data) <= 1e-14
    for f_real, f_cplx in ((fr, fc), (cr, cc)):
        for s in (0, 1):
            assert sobolev_norm(f_real, s) == pytest.approx(sobolev_norm(f_cplx, s), rel=1e-13)
        assert quadrature_l2(f_real) == pytest.approx(quadrature_l2(f_cplx), rel=1e-13)
        assert modal_tail_fraction(f_real) == pytest.approx(
            modal_tail_fraction(f_cplx), rel=1e-13, abs=1e-15)
        d_real, d_cplx = dealias_23(f_real), dealias_23(f_cplx)
        assert d_real.is_real and d_real.space == f_real.space
        assert rel(nodal(d_real), nodal(d_cplx)) <= 1e-13


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.dim}d-n{g.n}")
def test_nyquist_column_counts_once_and_interior_columns_twice(grid):
    # a single cosine at the last axis' Nyquist and one at k_last = 1
    x = grid.meshes()[-1]
    for k, twins in ((grid.n // 2, 1), (1, 2)):
        u = np.cos(np.pi * k * x / grid.a)[np.newaxis]
        fr, fc = Field._of(grid, u, NODAL), Field(grid, u)
        c = to_modal(fr).data
        assert np.count_nonzero(np.abs(c) > 1e-12) == 1
        assert sobolev_norm(fr, 0) == pytest.approx(sobolev_norm(fc, 0), rel=1e-13)
        assert sobolev_norm(fr, 0) == pytest.approx(quadrature_l2(fr), rel=1e-13)
        energy = np.sum(np.abs(c) ** 2) * twins * grid.volume
        assert np.sqrt(energy) == pytest.approx(sobolev_norm(fr, 0), rel=1e-13)


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.dim}d-n{g.n}")
def test_derivatives_on_half_spectra_match_the_complex_path(grid):
    fr, fc = real_pair(grid, 1, seed=3)
    cr, cc = to_modal(fr), to_modal(fc)
    for alpha in [(1,) + (0,) * (grid.dim - 1), (2,) * grid.dim, (0,) * (grid.dim - 1) + (1,)]:
        sym = derivative_symbol(grid, alpha)
        dr = apply_symbol(cr, lambda *k: sym)
        dc = apply_symbol(cc, lambda *k: sym)
        assert dr.is_real, alpha
        assert rel(_widen(dr).data, dc.data) <= 1e-13
        assert rel(to_nodal(dr).data, to_nodal(dc).data.real) <= 1e-13
        if alpha[-1] % 2:
            # the odd derivative's zeroed Nyquist column sits at +n/2 in the half layout
            assert not dr.data[..., grid.n // 2].any()


def test_a_symbol_that_does_not_keep_fields_real_widens_the_half_spectrum():
    grid = TorusGrid(2, 1.0, 8)
    fr, fc = real_pair(grid, 1, seed=4)
    for sigma in (lambda k1, k2: 1j * np.ones_like(k1), lambda k1, k2: 1j * k2):
        got = apply_symbol(to_modal(fr), sigma)
        assert not got.is_real and got.data.shape == (1,) + grid.shape
        assert rel(got.data, apply_symbol(to_modal(fc), sigma).data) <= 1e-14


@pytest.mark.parametrize("space", [NODAL, MODAL])
def test_cross_layout_arithmetic_widens_the_real_operand(space):
    grid = TorusGrid(2, 1.0, 8)
    ar, ac = real_pair(grid, 2, seed=5)
    br, bc = real_pair(grid, 2, seed=6)
    if space == MODAL:
        ar, ac, br, bc = (to_modal(f) for f in (ar, ac, br, bc))
    want = nodal(ac - bc)
    for got in (ar - bc, ac - br):
        assert not got.is_real and got.space == space
        assert rel(nodal(got), want) <= 1e-14
    assert (ar - br).is_real
    assert rel(nodal(ar - br), want) <= 1e-14
    assert rel(nodal(ar + bc), nodal(ac + bc)) <= 1e-14
    # a real weight keeps the layout, a complex one widens it
    assert (ar * complex(0.5)).is_real and (2.0 * ar).is_real
    for w in (0.5j, 1 - 2j):
        got = ar * w
        assert not got.is_real
        assert rel(nodal(got), nodal(ac * w)) <= 1e-14


def test_internal_constructor_keeps_the_array_and_the_public_one_stays_complex():
    grid = TorusGrid(1, 1.0, 8)
    u = np.linspace(0.0, 1.0, 16).reshape(2, 8)
    f = Field._of(grid, u, NODAL)
    assert f.data is u and f.is_real
    assert Field(grid, u).data.dtype == np.complex128
    assert not Field(grid, u).is_real


# ---------------------------------------------------------------------------
# flows and words


GS_GRID = TorusGrid(2, 8.0, 16)
VDP_GRID = TorusGrid(1, np.pi, 32)
VDP = VdpParams(eps=0.05)


def gs_state():
    return real_pair(GS_GRID, 2, seed=7, smooth=True)


def vdp_state():
    f = initial_condition("vdp_gaussians", VDP_GRID)
    return Field._of(VDP_GRID, f.data.real.copy(), NODAL), f


def test_half_layout_vdp_factors_are_the_real_part_of_the_full_ones():
    n = VDP_GRID.n
    full = _vdp_factors(VDP_GRID, VDP, 0.013)
    half = _vdp_factors(VDP_GRID, VDP, 0.013, True)
    for h, c in zip(half, full):
        assert h.dtype == np.float64 and not h.flags.writeable
        assert np.array_equal(h, c[: n // 2 + 1].real)
        assert np.abs(c.imag).max() <= 1e-14 * np.abs(c).max()


@pytest.mark.parametrize("flow,state", [
    (lambda t, f: gs_linear_flow(t, f, GrayScottParams()), gs_state),
    (lambda t, f: vdp_linear_flow(t, f, VDP), vdp_state),
])
def test_modal_flows_keep_a_real_state_real_for_a_float_t_and_widen_it_for_a_complex_t(flow, state):
    fr, fc = state()
    for t, stays_real in ((0.01, True), (0.01 + 0.004j, False), (complex(0.01), False)):
        for start_r, start_c in ((fr, fc), (to_modal(fr), to_modal(fc))):
            got, want = flow(t, start_r), flow(t, start_c)
            assert got.is_real == stays_real and got.space == MODAL
            assert rel(_widen(got).data, want.data) <= 1e-13
    # a float t does not narrow a complex state
    assert not flow(0.01, fc).is_real


def recording(prob):
    times = []

    def wrap(flow):
        def traced(t, f):
            times.append(t)
            return flow(t, f)
        return traced

    return prob.__class__(prob.name, tuple(map(wrap, prob.flows)), prob.rhs, prob.m), times


@pytest.mark.parametrize("make,state", [
    (lambda: gray_scott_abc_problem(GS_GRID), gs_state),
    (lambda: gray_scott_problem(GS_GRID), gs_state),
    (lambda: van_der_pol_problem(VDP_GRID, VDP), vdp_state),
])
def test_a_real_word_runs_real_and_a_complex_word_matches_the_complex_path(make, state):
    prob, times = recording(make())
    fr, fc = state()
    # no built-in three-operator scheme is complex
    real_name, cplx_name = ("strang3", None) if prob.arity == 3 else ("strang", "comp3c")
    scheme = REG.scheme(real_name)
    got = compose_step(scheme, prob, 0.02, fr)
    assert got.is_real and all(type(t) is float for t in times)
    times.clear()
    want = compose_step(scheme, prob, 0.02, fc)
    # the complex layout keeps its complex times, as before the real layout
    assert not want.is_real and all(isinstance(t, complex) for t in times)
    assert rel(nodal(got), nodal(want)) <= 1e-13
    if cplx_name:
        scheme = REG.scheme(cplx_name)
        for start_r, start_c in ((fr, fc), (to_modal(fr), to_modal(fc))):
            got = compose_step(scheme, prob, 0.02, start_r)
            want = compose_step(scheme, prob, 0.02, start_c)
            assert not got.is_real
            assert rel(nodal(got), nodal(want)) <= 1e-13


def test_comp3c_step_from_a_real_nodal_state_is_bitwise_the_complex_path():
    # nodal widening is a cast, so the complex word sees the very same numbers
    prob = gray_scott_problem(GS_GRID)
    fr, fc = gs_state()
    got = compose_step(REG.scheme("comp3c"), prob, 0.02, fr)
    want = compose_step(REG.scheme("comp3c"), prob, 0.02, fc)
    assert np.array_equal(got.data, want.data)


@pytest.mark.parametrize("pair", ["lie-milne", "lie-avg", "emb23c", "comp3c-avg"])
def test_estimates_from_a_real_state_match_the_complex_path(pair):
    prob = van_der_pol_problem(VDP_GRID, VDP)
    fr, fc = vdp_state()
    got = estimate_step(REG.pair(pair), prob, 1e-3, fr)
    want = estimate_step(REG.pair(pair), prob, 1e-3, fc)
    assert got.est_norm == pytest.approx(want.est_norm, rel=1e-9)
    assert got.flow_evals == want.flow_evals
    for a, b in ((got.u_next, want.u_next), (got.u_control, want.u_control)):
        assert rel(nodal(a), nodal(b)) <= 1e-13


def test_project_real_returns_the_real_layout():
    prob = gray_scott_problem(GS_GRID)
    fr, fc = gs_state()
    out = compose_step(REG.scheme("comp3c"), prob, 0.02, fc)
    got = _real(out)
    assert got.is_real and got.space == NODAL and got.data.dtype == np.float64
    assert np.array_equal(got.data, to_nodal(out).data.real)
    assert _real(fr) is fr


def test_apply_word_counts_no_flow_for_zero_letters_in_either_layout():
    prob = gray_scott_problem(GS_GRID)
    fr, _ = gs_state()
    out, n = apply_word(((0, 0j), (1, 1 + 0j)), prob, 0.01, fr)
    assert n == 1 and out.is_real


# ---------------------------------------------------------------------------
# CLI: the real path against the complex path


CLI_CASES = {
    "gray_scott_abc": {
        "problem": {"name": "gray_scott_abc", "dim": 2, "a": 30.0, "n": 32,
                    "initial": "random_smooth", "initial_args": {"seed": 0}},
        "run": {"mode": "adaptive", "pair": "lie3-avg", "t0": 0.0, "t_end": 0.3,
                "control": {"tol": 1e-6}},
    },
    "van_der_pol": {
        "problem": {"name": "van_der_pol", "dim": 1, "a": np.pi, "n": 64,
                    "params": {"eps": 0.01}, "initial": "vdp_gaussians"},
        "run": {"mode": "adaptive", "pair": "lie-milne", "t0": 0.0, "t_end": 0.2,
                "control": {"tol": 1e-3}},
    },
}


def run_cli(tmp_path, cfg, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / name
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    rows = (out / "trajectory.csv").read_text().splitlines()[1:]
    return [row.split(",") for row in rows], read_field(out / "final.field")


@pytest.mark.parametrize("case", CLI_CASES)
def test_cli_real_and_complex_paths_agree(case, tmp_path, monkeypatch):
    cfg = CLI_CASES[case]
    rows_r, final_r = run_cli(tmp_path, cfg, "real")
    build = cli._build_problem
    seen = []

    def complex_start(*args, **kwargs):
        prob, f0 = build(*args, **kwargs)
        seen.append(f0.is_real)
        return prob, _widen(f0)

    monkeypatch.setattr(cli, "_build_problem", complex_start)
    rows_c, final_c = run_cli(tmp_path, cfg, "complex")
    assert seen == [True]
    assert [r[3] for r in rows_r] == [r[3] for r in rows_c]  # accepted/rejected, in order
    assert [r[4] for r in rows_r] == [r[4] for r in rows_c]  # flow evaluations
    assert rel(final_r.data, final_c.data) <= 1e-12
    # field files keep their "re im" lines; a real state writes 0.0 imaginary parts
    assert not final_r.data.imag.any()
