"""Transform, norm, and snapshot tests for the pseudospectral layer."""

import numpy as np
import pytest

from _oracles import dft_coefficients_1d, sobolev_norm_direct_1d

from splitstep import (
    Field,
    RepresentationError,
    TorusGrid,
    apply_symbol,
    dealias_23,
    derivative_symbol,
    laplacian_symbol,
    modal_tail_fraction,
    quadrature_l2,
    read_field,
    sobolev_norm,
    to_modal,
    to_nodal,
    write_field,
)


def random_field(grid, m=1, seed=0):
    rng = np.random.default_rng(seed)
    shape = (m,) + grid.shape
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return Field(grid, data)


# ---------------------------------------------------------------------------
# grid validation


def test_grid_rejects_bad_parameters():
    with pytest.raises(RepresentationError):
        TorusGrid(0, 1.0, 8)
    with pytest.raises(RepresentationError):
        TorusGrid(4, 1.0, 8)
    with pytest.raises(RepresentationError):
        TorusGrid(1, -1.0, 8)
    with pytest.raises(RepresentationError):
        TorusGrid(1, np.inf, 8)
    with pytest.raises(RepresentationError):
        TorusGrid(1, 1.0, 12)  # not a power of two
    with pytest.raises(RepresentationError):
        TorusGrid(1, 1.0, 2)  # too small


def test_grid_geometry():
    g = TorusGrid(2, 3.0, 8)
    assert g.shape == (8, 8)
    assert g.spacing == pytest.approx(0.75)
    assert g.volume == pytest.approx(36.0)
    assert g.axis()[0] == -3.0
    assert g.axis()[-1] == pytest.approx(3.0 - 0.75)


# ---------------------------------------------------------------------------
# transforms


@pytest.mark.parametrize("dim,n", [(1, 32), (2, 16), (3, 8)])
def test_round_trip_identity(dim, n):
    grid = TorusGrid(dim, 1.3, n)
    f = random_field(grid, m=2, seed=dim)
    back = to_nodal(to_modal(f))
    err = np.max(np.abs(back.data - f.data)) / np.max(np.abs(f.data))
    assert err <= 1e-12


def test_mean_mode_is_zero_coefficient():
    grid = TorusGrid(2, 2.0, 16)
    f = random_field(grid, seed=3)
    c = to_modal(f)
    assert c.data[0, 0, 0] == pytest.approx(np.mean(f.data[0]), rel=1e-12)


def test_single_mode_has_unit_coefficient():
    # u = exp(i*pi*(x+a)/a) must produce c_1 = 1 exactly (up to roundoff),
    # with no contamination of other modes: fixes the phase convention,
    # measured from the box corner x = -a.
    a = 1.7
    grid = TorusGrid(1, a, 32)
    x = grid.axis()
    f = Field(grid, np.exp(1j * np.pi * (x + a) / a))
    c = to_modal(f).data[0]
    assert c[1] == pytest.approx(1.0, abs=1e-13)
    others = np.delete(c, 1)
    assert np.max(np.abs(others)) <= 1e-13


def test_transform_matches_direct_dft():
    a = 0.9
    grid = TorusGrid(1, a, 16)
    f = random_field(grid, seed=5)
    c = to_modal(f).data[0]
    ref = dft_coefficients_1d(f.data[0], a)
    assert np.max(np.abs(c - ref)) <= 1e-13


def test_field_space_and_grid_mismatch_raise():
    g1 = TorusGrid(1, 1.0, 8)
    g2 = TorusGrid(1, 2.0, 8)
    f = random_field(g1)
    with pytest.raises(RepresentationError):
        f + random_field(g2)
    with pytest.raises(RepresentationError):
        f + to_modal(random_field(g1))
    with pytest.raises(RepresentationError):
        f + random_field(g1, m=2)
    with pytest.raises(RepresentationError):
        Field(g1, np.zeros(8), space="frequency")
    with pytest.raises(RepresentationError):
        Field(g1, np.zeros(9))


# ---------------------------------------------------------------------------
# symbols


def test_derivative_of_trig_polynomial():
    a = 2.2
    grid = TorusGrid(1, a, 32)
    x = grid.axis()
    u = np.sin(np.pi * x / a) + 0.3 * np.cos(3 * np.pi * x / a)
    du = (np.pi / a) * np.cos(np.pi * x / a) - 0.9 * (np.pi / a) * np.sin(3 * np.pi * x / a)
    f = to_modal(Field(grid, u))
    sym = derivative_symbol(grid, (1,))
    got = to_nodal(apply_symbol(f, lambda *k: sym)).data[0]
    assert np.max(np.abs(got - du)) <= 1e-12


def test_laplacian_symbol_on_single_mode():
    # At a = pi the mode exp(i*x) has Laplacian eigenvalue exactly -1.
    grid = TorusGrid(1, np.pi, 16)
    x = grid.axis()
    f = to_modal(Field(grid, np.exp(1j * x)))
    g = apply_symbol(f, lambda *k: laplacian_symbol(grid))
    assert np.max(np.abs(g.data + f.data)) <= 1e-13


def test_mixed_derivative_2d():
    a = 1.0
    grid = TorusGrid(2, a, 16)
    X, Y = grid.meshes()
    u = np.sin(np.pi * X) * np.cos(2 * np.pi * Y)
    # d^2/dxdy = pi * cos(pi x) * (-2 pi sin(2 pi y))
    target = -2 * np.pi**2 * np.cos(np.pi * X) * np.sin(2 * np.pi * Y)
    sym = derivative_symbol(grid, (1, 1))
    got = to_nodal(apply_symbol(to_modal(Field(grid, u)), lambda *k: sym)).data[0]
    assert np.max(np.abs(got - target)) <= 1e-11


def test_odd_derivative_kills_nyquist():
    grid = TorusGrid(1, 1.0, 8)
    # the sawtooth cos(pi*n/2 * x) lives exactly on the Nyquist column
    u = np.cos(np.pi * 4 * grid.axis())
    f = to_modal(Field(grid, u))
    sym = derivative_symbol(grid, (1,))
    got = apply_symbol(f, lambda *k: sym)
    assert np.max(np.abs(got.data)) == 0.0
    # even orders keep it
    sym2 = derivative_symbol(grid, (2,))
    got2 = apply_symbol(f, lambda *k: sym2)
    assert np.max(np.abs(got2.data)) > 1.0


def test_apply_symbol_requires_modal():
    grid = TorusGrid(1, 1.0, 8)
    with pytest.raises(RepresentationError):
        apply_symbol(random_field(grid), lambda k: k)


# ---------------------------------------------------------------------------
# norms


def test_parseval_identity_random_fields():
    for seed in range(5):
        grid = TorusGrid(2, 1.4, 16)
        f = random_field(grid, m=2, seed=seed)
        a = quadrature_l2(f)
        b = sobolev_norm(f, 0)
        assert abs(a - b) / a <= 1e-10


def test_sobolev_norm_constant_field():
    # u = 1 on [-pi, pi]: only the k = 0 coefficient, norm sqrt(2*pi) at every s
    grid = TorusGrid(1, np.pi, 16)
    f = Field(grid, np.ones(16))
    for s in (0, 0.5, 1, 2):
        assert sobolev_norm(f, s) == pytest.approx(np.sqrt(2 * np.pi), rel=1e-13)


def test_sobolev_norm_single_mode_h1():
    # u = exp(i*x) on [-pi, pi]: weight 1 + 1 = 2, norm sqrt(2*pi*2) = 2*sqrt(pi)
    grid = TorusGrid(1, np.pi, 16)
    f = Field(grid, np.exp(1j * grid.axis()))
    assert sobolev_norm(f, 1) == pytest.approx(2 * np.sqrt(np.pi), rel=1e-13)


@pytest.mark.parametrize("s", [np.inf, np.nan, -0.5])
def test_sobolev_norm_refuses_an_index_that_is_not_finite_and_nonnegative(s):
    # at s = inf every weight but the mean's is infinite; NaN compares false
    with pytest.raises(RepresentationError):
        sobolev_norm(random_field(TorusGrid(1, 1.0, 8)), s)


def test_sobolev_norm_matches_direct_sum():
    a = 1.25
    grid = TorusGrid(1, a, 16)
    f = random_field(grid, seed=9)
    for s in (0, 0.5, 1, 1.5, 2):
        ref = sobolev_norm_direct_1d(f.data[0], a, s)
        assert sobolev_norm(f, s) == pytest.approx(ref, rel=1e-11)


def test_sobolev_norm_monotone_in_s():
    grid = TorusGrid(1, 1.0, 32)
    f = random_field(grid, seed=12)
    vals = [sobolev_norm(f, s) for s in (0, 0.5, 1, 1.5, 2, 3)]
    assert all(x < y for x, y in zip(vals, vals[1:]))


def test_sobolev_norm_multicomponent_rss():
    grid = TorusGrid(1, 1.0, 16)
    f1 = random_field(grid, seed=1)
    f2 = random_field(grid, seed=2)
    both = Field(grid, np.concatenate([f1.data, f2.data]))
    expect = np.hypot(sobolev_norm(f1, 1), sobolev_norm(f2, 1))
    assert sobolev_norm(both, 1) == pytest.approx(expect, rel=1e-13)


def test_negative_s_rejected():
    grid = TorusGrid(1, 1.0, 8)
    with pytest.raises(RepresentationError):
        sobolev_norm(random_field(grid), -1)


# ---------------------------------------------------------------------------
# dealiasing and tails


def test_dealias_23_zeroes_high_modes_and_is_idempotent():
    grid = TorusGrid(1, 1.0, 32)  # cutoff at |k| > 32/3, i.e. keep |k| <= 10
    f = random_field(grid, seed=7)
    g = dealias_23(to_modal(f))
    k = np.fft.fftfreq(32, d=1.0 / 32)
    assert np.all(g.data[0][np.abs(k) > 32 / 3] == 0)
    kept = np.abs(k) <= 32 / 3
    assert np.allclose(g.data[0][kept], to_modal(f).data[0][kept], rtol=0, atol=0)
    assert np.array_equal(dealias_23(g).data, g.data)  # idempotent in modal space
    # output space follows input space
    assert dealias_23(f).space == "nodal"
    assert dealias_23(to_modal(f)).space == "modal"


def test_modal_tail_fraction():
    grid = TorusGrid(1, 1.0, 32)
    smooth = Field(grid, np.exp(1j * np.pi * grid.axis()))  # k = 1 only
    assert modal_tail_fraction(smooth) <= 1e-28
    rough = Field(grid, np.exp(1j * np.pi * 12 * grid.axis()))  # k = 12 >= n/4
    assert modal_tail_fraction(rough) == pytest.approx(1.0)
    zero = Field(grid, np.zeros(32))
    assert modal_tail_fraction(zero) == 0.0


# ---------------------------------------------------------------------------
# snapshots


def test_snapshot_round_trip_bit_exact(tmp_path):
    grid = TorusGrid(2, 1.1, 8)
    f = random_field(grid, m=2, seed=21)
    p = tmp_path / "state.field"
    write_field(f, p)
    g = read_field(p)
    assert g.grid == grid
    assert g.m == 2
    assert np.array_equal(g.data, f.data)  # bit-exact, not approx


def test_snapshot_round_trip_converts_modal():
    grid = TorusGrid(1, 1.0, 16)
    f = to_modal(random_field(grid, seed=2))
    import io, os, tempfile

    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "x.field")
        write_field(f, p)
        g = read_field(p)
    assert g.space == "nodal"
    assert np.array_equal(g.data, to_nodal(f).data)


@pytest.mark.parametrize("dim, a", [(1, 0.0), (1, -1.0), (1, np.nan), (1, np.inf),
                                    (1, 1e-300), (2, 1e200), (3, 1e200)])
def test_grid_refuses_a_width_whose_scales_overflow(tmp_path, dim, a):
    # (pi/a)^2 used to overflow in the Laplacian, and (2a)^dim in the volume
    with pytest.raises(RepresentationError, match="half-width a"):
        TorusGrid(dim, a, 8)
    p = tmp_path / "wide.field"
    p.write_text(f"splitstep-field 1 {dim} {a!r} 4 1\n" + "0.0 0.0\n" * 4**dim)
    with pytest.raises(RepresentationError, match="not a field snapshot"):
        read_field(p)


def test_grid_takes_a_wide_or_narrow_width_whose_scales_stay_finite():
    for dim, a in [(1, 1e200), (1, 1e-150), (3, 1e100)]:
        grid = TorusGrid(dim, a, 8)
        assert np.isfinite([grid.volume, grid.cell_volume, -laplacian_symbol(grid).max()]).all()


def test_snapshot_rejects_garbage(tmp_path):
    p = tmp_path / "bad.field"
    p.write_text("not a snapshot\n")
    with pytest.raises(RepresentationError):
        read_field(p)
    p.write_text("splitstep-field 1 1 1.0 8 1\n0.0 0.0\n")  # truncated
    with pytest.raises(RepresentationError):
        read_field(p)
    # every malformed snapshot is a RepresentationError naming the bad line
    body = "0.0 0.0\n" * 7
    for text, where in [
        ("splitstep-field 1 1 1.0 8 1\nx 0.0\n" + body, "bad or missing data line 0"),
        ("splitstep-field 1 1 1.0 8 1\n" + body + "0.0 0.0 0.0\n", "bad or missing data line 7"),
        ("splitstep-field 1 1.5 1.0 8 1\n0.0 0.0\n" + body, "not a field snapshot"),
        ("splitstep-field 1 1 1.0 8 -1\n", "not a field snapshot"),
        ("splitstep-field 1 1 1.0 8 1\n" + body, "bad or missing data line 7"),
        # a header the grid refuses: no infinite spacing, no bare grid error
        ("splitstep-field 1 1 inf 8 1\n0.0 0.0\n" + body, "not a field snapshot"),
        ("splitstep-field 1 1 -1.0 8 1\n0.0 0.0\n" + body, "not a field snapshot"),
    ]:
        p.write_text(text)
        with pytest.raises(RepresentationError, match=where):
            read_field(p)


# ---------------------------------------------------------------------------
# shared grid caches and the transform scaling


GRIDS = [TorusGrid(1, 1.0, 16), TorusGrid(2, 2.5, 8), TorusGrid(3, 1.0, 4)]


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.dim}d")
def test_grid_cache_arrays_refuse_writes(grid):
    from splitstep.spectral import (
        _dealias_keep,
        _k_abs1,
        _k_meshes,
        _kappa_sq,
    )

    arrays = [*_k_meshes(grid), _k_abs1(grid), _kappa_sq(grid), _dealias_keep(grid),
              *grid.wavenumbers()]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0


def test_in_place_sigma_cannot_corrupt_later_symbols_or_norms():
    grid = TorusGrid(1, 1.0, 16)
    f = random_field(grid, m=2, seed=5)
    d_before = derivative_symbol(grid, (1,))
    h1_before = sobolev_norm(f, 1)
    with pytest.raises(ValueError):
        apply_symbol(to_modal(f), lambda k: k.__imul__(2.0))
    assert np.array_equal(derivative_symbol(grid, (1,)), d_before)
    assert sobolev_norm(f, 1) == h1_before


@pytest.mark.parametrize("dim,n", [(1, 4), (1, 64), (1, 256), (2, 8), (2, 32), (3, 4), (3, 16)])
def test_transforms_equal_the_explicitly_scaled_fft_bitwise(dim, n):
    grid = TorusGrid(dim, 1.7, n)
    f = random_field(grid, m=2, seed=n + dim)
    axes = tuple(range(1, dim + 1))
    want_modal = np.fft.fftn(f.data, axes=axes) / (n**dim)
    assert np.array_equal(to_modal(f).data, want_modal)
    c = Field(grid, f.data, "modal")
    want_nodal = np.fft.ifftn(c.data * (n**dim), axes=axes)
    assert np.array_equal(to_nodal(c).data, want_nodal)


@pytest.mark.parametrize("dim,n", [(1, 128), (1, 1024), (2, 64), (2, 128), (3, 32)])
def test_per_axis_transforms_equal_fftn_and_ifftn_bitwise(dim, n):
    # the transforms loop np.fft.fft/ifft over the axes; fftn/ifftn with the
    # same norm are the reference, scaled per axis
    grid = TorusGrid(dim, 1.3, n)
    f = random_field(grid, m=2, seed=n + 7 * dim)
    axes = tuple(range(1, dim + 1))
    want_modal = np.fft.fftn(f.data, axes=axes, norm="forward")
    assert np.array_equal(to_modal(f).data, want_modal)
    c = Field(grid, f.data, "modal")
    want_nodal = np.fft.ifftn(c.data, axes=axes, norm="forward")
    assert np.array_equal(to_nodal(c).data, want_nodal)


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.dim}d")
@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_transforms_of_read_only_data_leave_it_unchanged(grid, real):
    # a transform hands its input straight to the FFTs, so a held state
    # (FixedSolves hands out read-only ones) must pass through unwritten
    f = random_field(grid, m=2, seed=grid.dim)
    if real:
        f = Field._of(grid, f.data.real.copy(), "nodal")
    for g, transform in ((f, to_modal), (to_modal(f), to_nodal)):
        g.data.setflags(write=False)
        before = g.data.tobytes()
        out = transform(g)
        assert g.data.tobytes() == before
        assert out.is_real == real and not np.shares_memory(out.data, g.data)


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.dim}d")
def test_laplacian_symbol_is_fresh_and_bitwise_the_formula(grid):
    k1 = np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    ks = np.meshgrid(*([k1] * grid.dim), indexing="ij")
    lap = laplacian_symbol(grid)
    assert np.array_equal(lap, -((np.pi / grid.a) ** 2) * sum(k * k for k in ks))
    assert lap.flags.writeable
    lap[...] = 0.0
    assert laplacian_symbol(grid).any()


def test_write_lines_puts_the_preamble_first_and_ends_every_line(tmp_path):
    from splitstep.spectral import _write_lines

    p = tmp_path / "with.txt"
    _write_lines(p, ["r1", "r2"], {"a": 1, "b": "x"})
    assert p.read_bytes() == b"# a=1\n# b=x\nr1\nr2\n"
    _write_lines(p, ["r1", "r2"])
    assert p.read_bytes() == b"r1\nr2\n"


def test_field_file_bytes_are_pinned(tmp_path):
    # repr() floats, the sign of a zero kept, one "re im" line per node
    f = Field(TorusGrid(1, 1.0, 4), np.array([0.5, -0.0, 1.25 + 2j, -3.0 - 0.5j]))
    p = tmp_path / "small.field"
    write_field(f, p)
    assert p.read_bytes() == (
        b"splitstep-field 1 1 1.0 4 1\n0.5 0.0\n-0.0 0.0\n1.25 2.0\n-3.0 -0.5\n"
    )


def test_only_spectral_and_the_operator_adaptors_call_field_of():
    # every change of a field's representation lives in spectral; outside it
    # only problems' two adaptors wrap the arrays their kernels return
    import ast
    from pathlib import Path

    import splitstep

    callers = set()
    for path in Path(splitstep.__file__).parent.glob("*.py"):
        if path.stem == "spectral":
            continue
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute) and node.attr == "_of"
                        and isinstance(node.value, ast.Name) and node.value.id == "Field"):
                    callers.add((path.stem, getattr(top, "name", None), node.lineno))
    assert {(stem, name) for stem, name, _ in callers} == {("problems", "_nodal"),
                                                          ("problems", "_modal")}, callers


@pytest.mark.parametrize("space", ["nodal", "modal"])
def test_in_space_transforms_only_a_field_in_the_other_space(space):
    from splitstep.spectral import _in_space

    f = random_field(GRIDS[0], m=2, seed=5)
    same, other = (f, to_modal(f)) if space == "nodal" else (to_modal(f), f)
    assert _in_space(same, space) is same
    out, want = _in_space(other, space), (to_nodal if space == "nodal" else to_modal)(other)
    assert out.space == space and np.array_equal(out.data, want.data)
