"""Fourier pseudospectral representation on the torus [-a, a]^d.

Conventions
-----------
A real or complex function on the torus is sampled on the uniform grid
x_i = -a + 2a*i/n per axis.  Modal coefficients measure phase from the
box corner x = -a, the first node (every modal operation acts on each
mode alone, so no result depends on where phase is measured):

    c_k = (2a)^(-d) * integral_Q u(x) exp(-i*pi*(k.(x+a))/a) dx,

so c_0 is the mean value and u(x) = sum_k c_k exp(i*pi*(k.(x+a))/a).  The
discrete transform is the FFT alone; ``norm="forward"`` applies the modal
scaling, n^-1 per axis and n^-d in all.  The transforms run one
1D FFT per axis, last axis first: the loop ``np.fft.fftn``/``ifftn`` run,
bitwise the same, without their per-call argument handling.  Wavenumbers
are integers.  One read-only cache, ``_grid_cache``, holds the per-grid
arrays that callers share, keyed on the grid and the layout.

Two layouts
-----------
* Complex: complex128 nodal samples, and the full spectrum in the
  standard FFT layout, |k_j| <= n/2 with the Nyquist column at -n/2.
  ``Field(grid, data)`` always makes this layout.
* Real: float64 nodal samples, and their Hermitian half spectrum
  (``np.fft.rfft`` on the last axis, then ``fft`` on the others; the last
  axis holds k = 0..n/2, so its Nyquist column sits at +n/2).  Only the
  library makes it, through ``Field._of``; ``Field.is_real`` tells them
  apart.  A mode with 0 < k_last < n/2 stands for its conjugate twin too,
  so sums of |c_k|^2 (``sobolev_norm``, ``modal_tail_fraction``) weight
  it twice.

Every operation keeps a real field real where the result is real, and
otherwise widens it to the complex layout first (``_widen``: nodal data by
``astype``, a half spectrum by Hermitian expansion, no FFT).  Arithmetic
between the two layouts widens the real operand.

Every change of a field's representation is made here: by the transforms,
``_widen``, and three rules, ``_in_space`` (at most one transform into a
space), ``_real`` (the real layout of a field's nodal real part) and
``_read_only`` (a shared state, marked as ``_grid_cache`` marks its arrays).
Outside this module only the adaptors ``problems._nodal``/``_modal`` call ``Field._of``.

Derivative multipliers are sigma(k) = (i*pi/a)^|alpha| * k^alpha.  Odd
derivative orders zero the Nyquist column (the cosine mode has no
well-defined odd derivative on the grid).  The Laplacian multiplier uses
the Euclidean combination sum_j k_j^2, while the Sobolev norm weight uses
the 1-norm |k| = |k_1| + ... + |k_d|; the two are intentionally distinct.

Every text file the package writes (field snapshots, trajectory,
convergence and efficiency CSVs, scheme files, the snapshot index) goes
through one writer, ``_write_lines``: ``# key=value`` provenance lines,
then the lines, each ending in a newline.  Every JSON file it reads (CLI
configs, scheme files) goes through one reader, ``_read_object``, which
requires a top-level object; ``_value`` reads each value in it through
``_read``, naming its block and key, and ``_only`` refuses the keys a
block does not take.
Numbers, integers, flags and steps are read by ``_number``, ``_integer``, ``_bool`` and ``_width``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache, partial, wraps
from itertools import chain
from numbers import Integral, Real

import numpy as np

from .exceptions import ConfigError, RepresentationError

__all__ = [
    "TorusGrid",
    "Field",
    "to_modal",
    "to_nodal",
    "apply_symbol",
    "derivative_symbol",
    "laplacian_symbol",
    "sobolev_norm",
    "quadrature_l2",
    "dealias_23",
    "modal_tail_fraction",
    "write_field",
    "read_field",
]

NODAL = "nodal"
MODAL = "modal"


@dataclass(frozen=True)
class TorusGrid:
    """Uniform tensor grid on [-a, a]^dim with n points per axis.

    Parameters
    ----------
    dim : int
        Spatial dimension, 1 to 3.
    a : float
        Half-width of the periodic box; positive, with (pi/a)^2 and (2a)^dim finite.
    n : int
        Points per axis; a power of two, at least 4.
    """

    dim: int
    a: float
    n: int

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise RepresentationError(f"dim must be 1, 2 or 3, got {self.dim}")
        with np.errstate(over="ignore"):  # positive first: no division by 0 or NaN
            a = np.float64(self.a) if 0 < self.a else np.nan
            if not np.isfinite([(np.pi / a) ** 2, (2.0 * a) ** self.dim]).all():
                raise RepresentationError("half-width a must be positive, with (pi/a)^2 and "
                                          f"(2a)^{self.dim} finite, got {self.a}")
        n = self.n
        if n < 4 or (n & (n - 1)) != 0:
            raise RepresentationError(f"n must be a power of two >= 4, got {n}")

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def spacing(self) -> float:
        return 2.0 * self.a / self.n

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @property
    def volume(self) -> float:
        return (2.0 * self.a) ** self.dim

    def axis(self) -> np.ndarray:
        """Node coordinates along one axis, x_i = -a + 2a*i/n."""
        return -self.a + self.spacing * np.arange(self.n)

    def meshes(self) -> tuple:
        """Nodal coordinate meshes, one (n,)*dim array per axis."""
        return np.meshgrid(*([self.axis()] * self.dim), indexing="ij")

    def wavenumbers(self) -> tuple:
        """Integer wavenumber meshes in FFT layout, one shared read-only array per axis."""
        return _k_meshes(self)


def _grid_cache(fn=None, *, maxsize=64):
    """lru_cache per argument tuple; its arrays are shared, so made read-only.

    Typed, so a float and a complex argument of equal value (whose
    products differ in dtype) get separate entries.  ``@_grid_cache(maxsize=k)``
    bounds a cache whose keys change as a run goes on.
    """
    if fn is None:
        return partial(_grid_cache, maxsize=maxsize)

    @lru_cache(maxsize=maxsize, typed=True)
    @wraps(fn)
    def cached(*args):
        out = fn(*args)
        for arr in out if isinstance(out, tuple) else (out,):
            arr.setflags(write=False)
        return out

    return cached


@_grid_cache
def _k_meshes(grid: TorusGrid, half: bool = False) -> tuple:
    k1 = np.fft.fftfreq(grid.n, d=1.0 / grid.n)  # integers as float64
    axes = [k1] * grid.dim
    if half:
        axes[-1] = np.fft.rfftfreq(grid.n, d=1.0 / grid.n)
    return tuple(np.meshgrid(*axes, indexing="ij"))


@_grid_cache
def _k_abs1(grid: TorusGrid, half: bool = False) -> np.ndarray:
    # 1-norm |k| used by the Sobolev weight
    return sum(np.abs(k) for k in _k_meshes(grid, half))


@_grid_cache
def _kappa_sq(grid: TorusGrid, half: bool = False) -> np.ndarray:
    # (pi/a)^2 * sum k_j^2: minus the Laplacian's multiplier
    return sum(k * k for k in _k_meshes(grid, half)) * (np.pi / grid.a) ** 2


@_grid_cache
def _dealias_keep(grid: TorusGrid, half: bool = False) -> np.ndarray:
    # True where every |k_j| <= n/3 (2/3 rule)
    return np.all([np.abs(k) <= grid.n / 3.0 for k in _k_meshes(grid, half)], axis=0)


@_grid_cache
def _twins(grid: TorusGrid, half: bool) -> np.ndarray:
    # modes each coefficient stands for: 2 where 0 < k_last < n/2 in the half spectrum
    k = _k_meshes(grid, half)[-1]
    return np.where(half & (k > 0) & (k < grid.n / 2.0), 2.0, 1.0)


@_grid_cache
def _sobolev_weight(grid: TorusGrid, s: float, half: bool) -> np.ndarray:
    # (1 + |k|^(2s)) per coefficient, 1 for s = 0, times its twin count
    w = 1.0 + _k_abs1(grid, half) ** (2.0 * s) if s else 1.0
    return w * _twins(grid, half)


def _abs2(data: np.ndarray) -> np.ndarray:
    return data * data if data.dtype == np.float64 else data.real**2 + data.imag**2


class Field:
    """State with ``m`` components on a :class:`TorusGrid`.

    ``data`` has shape ``(m,) + grid.shape`` and dtype complex128 (the
    complex layout), or is the library's real layout: see the module
    docstring.  The ``space`` tag records whether the values are nodal
    samples or modal coefficients.  Linear arithmetic requires matching
    grid and space, and widens a real operand to meet a complex one.
    """

    __slots__ = ("grid", "data", "space")

    def __init__(self, grid: TorusGrid, data: np.ndarray, space: str = NODAL):
        if space not in (NODAL, MODAL):
            raise RepresentationError(f"space must be 'nodal' or 'modal', got {space!r}")
        data = np.asarray(data, dtype=np.complex128)
        if data.ndim == grid.dim:
            data = data[np.newaxis]
        if data.shape[1:] != grid.shape:
            raise RepresentationError(
                f"data shape {data.shape} does not match grid shape {grid.shape}"
            )
        self.grid = grid
        self.data = data
        self.space = space

    @classmethod
    def _of(cls, grid: TorusGrid, data: np.ndarray, space: str) -> "Field":
        """A field on an array the library made itself, in either layout: no conversion or check."""
        f = object.__new__(cls)
        f.grid = grid
        f.data = data
        f.space = space
        return f

    @property
    def m(self) -> int:
        return self.data.shape[0]

    @property
    def is_real(self) -> bool:
        """True in the real layout: float64 samples or a Hermitian half spectrum."""
        if self.space == NODAL:
            return self.data.dtype == np.float64
        return self.data.shape[-1] != self.grid.n

    def _check_compat(self, other: "Field"):
        if self.grid != other.grid:
            raise RepresentationError("fields live on different grids")
        if self.space != other.space:
            raise RepresentationError(
                f"representation mismatch: {self.space} vs {other.space}"
            )
        if self.m != other.m:
            raise RepresentationError(f"component mismatch: {self.m} vs {other.m}")

    def _common(self, other: "Field") -> tuple:
        self._check_compat(other)
        if self.is_real == other.is_real:
            return self, other
        return _widen(self), _widen(other)

    def __add__(self, other: "Field") -> "Field":
        a, b = self._common(other)
        return Field._of(a.grid, a.data + b.data, a.space)

    def __sub__(self, other: "Field") -> "Field":
        a, b = self._common(other)
        return Field._of(a.grid, a.data - b.data, a.space)

    def __mul__(self, scalar) -> "Field":
        f = self
        if isinstance(scalar, complex) and f.is_real:
            # a real factor keeps the layout; any other widens it
            if scalar.imag == 0:
                scalar = scalar.real
            else:
                f = _widen(f)
        return Field._of(f.grid, f.data * scalar, f.space)

    __rmul__ = __mul__

    def __repr__(self):
        return f"Field(m={self.m}, grid=({self.grid.dim}d, n={self.grid.n}), {self.space})"


def _negated_k(a: np.ndarray, axes) -> np.ndarray:
    # the entries at wavenumber -k along ``axes``: index i -> -i mod n
    return np.roll(np.flip(a, axes), 1, axes) if axes else a


def _widen(f: Field) -> Field:
    """The complex layout of ``f``: nodal samples cast to complex128, a half
    spectrum expanded by Hermitian symmetry (no transform); ``f`` if complex."""
    if not f.is_real:
        return f
    if f.space == NODAL:
        return Field._of(f.grid, f.data.astype(np.complex128), NODAL)
    c = f.data
    # full columns n/2+1 .. n-1 are the conjugates of columns n/2-1 .. 1 at -k
    tail = _negated_k(np.conj(c[..., f.grid.n // 2 - 1:0:-1]), tuple(range(1, f.grid.dim)))
    return Field._of(f.grid, np.concatenate([c, tail], axis=-1), MODAL)


def to_modal(f: Field) -> Field:
    """Forward transform, only its FFTs; identity if already modal."""
    if f.space == MODAL:
        return f
    dim, half = f.grid.dim, f.is_real
    c = np.fft.rfft(f.data, axis=dim, norm="forward") if half else f.data
    for axis in range(dim - half, 0, -1):
        c = np.fft.fft(c, axis=axis, norm="forward")
    return Field._of(f.grid, c, MODAL)


def to_nodal(f: Field) -> Field:
    """Inverse transform, only its FFTs, which never write ``f.data``; identity if nodal."""
    if f.space == NODAL:
        return f
    dim, half = f.grid.dim, f.is_real
    u = f.data
    for axis in range(dim - half, 0, -1):
        u = np.fft.ifft(u, axis=axis, norm="forward")
    if half:
        u = np.fft.irfft(u, n=f.grid.n, axis=dim, norm="forward")
    return Field._of(f.grid, u, NODAL)


def _in_space(f: Field, space: str) -> Field:
    """``f`` if it is in ``space``, else its one transform into ``space``."""
    return f if f.space == space else to_modal(f) if space == MODAL else to_nodal(f)


def _real(f: Field) -> Field:
    """The real layout of ``f``'s nodal real part (``to_nodal(f)`` if already real); nodal,
    since zeroing modal imaginary parts would break the Hermitian symmetry of real fields."""
    u = to_nodal(f)
    return u if u.is_real else Field._of(u.grid, u.data.real.copy(), NODAL)


def _read_only(f: Field) -> Field:
    """``f`` on a read-only view of its values, for a state that callers share."""
    data = f.data.view()
    data.flags.writeable = False
    return Field._of(f.grid, data, f.space)


def apply_symbol(f: Field, sigma) -> Field:
    """Multiply each modal coefficient by sigma(k).

    ``sigma`` is called once with the integer wavenumber meshes of the
    full spectrum (one argument per axis) and must return a broadcastable
    multiplier array.  The meshes are shared and read-only.  The input
    must be modal.  A half spectrum stays half when the multiplier keeps
    real fields real (sigma(-k) = conj(sigma(k)) on the grid, so real at
    each Nyquist column) and is widened to the full spectrum otherwise.
    """
    if f.space != MODAL:
        raise RepresentationError("apply_symbol requires a modal field")
    mult = np.asarray(sigma(*_k_meshes(f.grid, False)))
    if f.is_real:
        full = np.broadcast_to(mult, np.broadcast_shapes(mult.shape, f.grid.shape))
        axes = tuple(range(full.ndim - f.grid.dim, full.ndim))
        if np.array_equal(full, np.conj(_negated_k(full, axes))):
            mult = full[..., : f.grid.n // 2 + 1]
        else:
            f = _widen(f)
    return Field._of(f.grid, f.data * mult, MODAL)


def derivative_symbol(grid: TorusGrid, alpha: tuple):
    """Multiplier for the mixed derivative d^alpha: (i*pi/a)^|alpha| * k^alpha.

    Any odd component of ``alpha`` zeroes the Nyquist column of that axis.
    Returns a full-spectrum array ready to use with :func:`apply_symbol`
    via ``apply_symbol(f, lambda *k: sym)``, which on a half spectrum
    takes its columns k_last = 0..n/2 (the zeroed Nyquist column then
    sits at +n/2).
    """
    if len(alpha) != grid.dim:
        raise RepresentationError(f"alpha must have {grid.dim} entries")
    sym = np.ones(grid.shape, dtype=np.complex128) * (1j * np.pi / grid.a) ** sum(alpha)
    for k, a_j in zip(_k_meshes(grid, False), alpha):
        if a_j % 2 == 1:
            k = np.where(k == -grid.n // 2, 0.0, k)
        if a_j:
            sym = sym * k**a_j
    return sym


def laplacian_symbol(grid: TorusGrid) -> np.ndarray:
    """Multiplier of the Laplacian: -(pi/a)^2 * sum_j k_j^2."""
    return -_kappa_sq(grid, False)


def sobolev_norm(f: Field, s: float) -> float:
    """Spectral Sobolev norm ((2a)^d sum_k (1+|k|^(2s)) |c_k|^2)^(1/2).

    |k| is the 1-norm of the integer wavevector.  Multi-component fields
    contribute the root-sum-square over components.  s = 0 reduces the
    weight to 1 so the value equals the L2 norm (Parseval); for s > 0 the
    k = 0 weight is likewise 1 since |0|^(2s) = 0.
    """
    if not 0 <= s < np.inf:  # NaN too
        raise RepresentationError(f"s must be finite and >= 0, got {s}")
    c = to_modal(f)
    total = np.sum(_sobolev_weight(f.grid, s, c.is_real) * _abs2(c.data))
    return float(np.sqrt(f.grid.volume * total))


def quadrature_l2(f: Field) -> float:
    """Nodal-quadrature L2 norm (sum_i |u_i|^2 * cell_volume)^(1/2)."""
    total = np.sum(_abs2(to_nodal(f).data))
    return float(np.sqrt(f.grid.cell_volume * total))


def dealias_23(f: Field) -> Field:
    """Zero all modes with any |k_j| > n/3 (2/3 rule)."""
    c = to_modal(f)
    res = Field._of(f.grid, c.data * _dealias_keep(f.grid, c.is_real), MODAL)
    return _in_space(res, f.space)


def modal_tail_fraction(f: Field) -> float:
    """Fraction of modal energy carried by modes with max_j |k_j| >= n/4."""
    c = to_modal(f)
    half = c.is_real
    e = _abs2(c.data) * _twins(f.grid, half)
    tail = np.any([np.abs(k) >= f.grid.n / 4.0 for k in _k_meshes(f.grid, half)], axis=0)
    total = float(np.sum(e))
    if total == 0.0:
        return 0.0
    return float(np.sum(e * tail) / total)


# ---------------------------------------------------------------------------
# Snapshot file format
#
# Line 1 header:   splitstep-field 1 <dim> <a> <n> <m>
#   where <a> is repr() of the Python float (shortest round-trip form).
# Then m * n^dim data lines "re im", components in order, nodes in C order,
# floats again in repr() form.  Read back with float(), bit-exact.
# ---------------------------------------------------------------------------

_MAGIC = "splitstep-field"
_VERSION = 1


def _read_object(path, error, what) -> dict:
    """The JSON object in the file at ``path``; ``error`` reports a file
    that cannot be read, is not JSON, or holds no object."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not JSON, too many digits or too deep
        raise error(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{path}: top level must be an object")
    return doc


_REQUIRED = object()


def _value(block: dict, where: str, key: str, convert, default=_REQUIRED):
    """block[key] through ``convert``, or ``default`` if absent; a refusal names the key."""
    if key not in block:
        if default is _REQUIRED:
            raise ConfigError(f"{where} needs {key!r}")
        return default
    return _read(convert, block[key], f"{where}.{key}")


def _read(convert, v, name: str):
    """``convert(v)``; a refusal is a ConfigError that begins with ``name``."""
    try:
        return convert(v)
    except (TypeError, ValueError, OverflowError, ConfigError) as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _only(block: dict, where: str, keys) -> None:
    """Refuse every key of ``block`` outside ``keys``: a typo is not dropped."""
    stray = set(block) - set(keys)
    if stray:
        raise ConfigError(f"{where} takes no {sorted(stray)}")


def _checked(convert, ok, want):
    """A reader: ``convert`` the value, then refuse it unless ``ok`` holds."""
    def read(v):
        x = convert(v)
        if not ok(x):
            raise ValueError(f"expected {want}, got {v!r}")
        return x
    return read


def _as_is(v):
    return v


def _number(v) -> float:
    """A number as a float: "0.05" and true are none, and float() refuses 10**400."""
    if isinstance(v, bool) or not isinstance(v, Real):
        raise TypeError(f"expected a number, got {v!r}")
    return float(v)


# types are kept (bool("false") is True); numpy's scalars pass, for library callers
_integer = _checked(_as_is, lambda v: isinstance(v, Integral) and type(v) is not bool, "an integer")
_count = _checked(_integer, lambda v: v >= 1, "a positive integer")
_bool = _checked(_as_is, lambda v: isinstance(v, (bool, np.bool_)), "true or false")
_width = _checked(_number, lambda x: 0 < x < np.inf, "a positive finite number")  # steps too


def _floats(v) -> list:
    if not isinstance(v, (list, tuple, np.ndarray)):  # JSON gives lists, library callers more
        raise TypeError(f"expected a list of numbers, got {v!r}")
    return [_number(x) for x in v]


_times = _checked(_floats, lambda xs: np.isfinite(xs).all(), "a list of finite numbers")
_positives = _checked(_floats, lambda xs: xs and all(0 < x < np.inf for x in xs),
                      "a non-empty list of positive finite numbers")


def _write_lines(path, lines, preamble=None) -> None:
    """Write one ``# key=value`` line per ``preamble`` entry, then ``lines``,
    each ending in a newline."""
    with open(path, "w") as fh:
        fh.writelines(f"# {key}={val}\n" for key, val in (preamble or {}).items())
        fh.writelines(f"{line}\n" for line in lines)


def write_field(f: Field, path) -> None:
    """Write nodal values as the documented delimited-text snapshot."""
    u = to_nodal(f)
    header = f"{_MAGIC} {_VERSION} {f.grid.dim} {f.grid.a!r} {f.grid.n} {u.m}"
    # tolist() hands out Python floats or complexes, both with .real and .imag;
    # the lines are formatted as they are written, never held all at once
    lines = (f"{z.real!r} {z.imag!r}" for z in u.data.ravel().tolist())
    _write_lines(path, chain([header], lines))


def read_field(path) -> Field:
    """Read a snapshot written by :func:`write_field`.

    A malformed file is a RepresentationError that names the bad line.
    """
    i = -1  # the header
    with open(path) as fh:
        try:
            magic, version, dim, a, n, m = fh.readline().split()
            if magic != _MAGIC or int(version) != _VERSION or int(m) < 1:
                raise ValueError
            grid = TorusGrid(int(dim), float(a), int(n))
            re, im = np.empty((2, int(m) * grid.n**grid.dim))
            for i in range(re.size):
                re[i], im[i] = map(float, fh.readline().split())
        except (ValueError, RepresentationError):  # TorusGrid refuses a bad header grid
            where = f"bad or missing data line {i}" if i >= 0 else "not a field snapshot"
            raise RepresentationError(f"{path}: {where}") from None
    data = (re + 1j * im).reshape((-1,) + grid.shape)
    return Field(grid, data, NODAL)
