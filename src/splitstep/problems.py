"""Model problems split into operators with cheap or closed-form flows.

Two reaction-diffusion systems are built in:

* Gray-Scott:  u_t = c1*Lap(u) - u*v^2 + alpha*(1 - u),
               v_t = c2*Lap(v) + u*v^2 - beta*v.
  Two-operator split: A collects diffusion, the linear decay and the
  constant feed (an affine operator, diagonal in Fourier space except for
  the forced mean mode); B is the pointwise reaction (-u*v^2, u*v^2),
  propagated by classical RK4 substeps.  A three-operator variant splits
  the reaction once more into two pieces with closed-form flows.

* A van der Pol type system:  u_t = du*Lap(u) + v,
               v_t = dv*Lap(v) + ((1 - u^2)*v - u)/eps.
  A couples the components linearly (per-mode 2x2 exponential); B is the
  pointwise damping v <- v*exp(-u^2*t/eps).

A linear diagnostic problem (diffusion plus a multiplicative potential)
provides exact flows for oracle tests; with a constant potential the two
operators commute and every consistent splitting is exact.

All flows take a (possibly complex) time first: ``flow(t, field)``.
Diffusive flows refuse Re(t) < 0, which would amplify high modes.

Each operator's math is written once.  Pointwise operators are kernels
over the nodal components, which ``_nodal`` alone converts, stacks,
guards (``_guarded``, shared with ``_modal``: overflow is a BlowUpError)
and dealiases.  Modal operators are per-mode kernels over the modal
components, which ``_modal`` alone converts and wraps; for a flow it also
refuses Re(t) < 0 and widens a real state to the complex layout when t
is complex.  A real state under a float t stays real: the nodal kernels
run in float64 and the modal ones on the half spectrum (see ``spectral``).

Modal operators share their symbol per (grid, params, layout) between
flow and rhs: ``_gs_symbol``, ``_vdp_symbol`` and ``_linear_symbol``, over
``spectral._kappa_sq``, are cached read-only through
``spectral._grid_cache``.  A modal flow only applies its factors
exp(symbol * t), which ``_gs_factor``, ``_vdp_factors`` and
``_linear_factor`` build and cache, read-only, per (grid, params, t,
layout); a float t gives real factors in the half layout.  The same t
recurs within a step (an estimator's second word repeats the
integrator's A-times), on every step of a fixed-step run, and from step
to step of an adaptive run, whose steps ``control`` rounds to a grid
anchored at the run's first step.  The van der Pol factors build their
series for near-defective modes (|delta*t| < 1e-6) only when some mode
is one.  Each cache
keeps ``_FLOW_TIMES`` = 3 entries, the most distinct A-times a built-in
scheme has in one step (``comp3c`` and ``emb2c``): two would thrash on
``comp3c``'s three, and more would only hold more field-sized factors on
2D and 3D grids.  A refused t (Re(t) < 0) never reaches a cache.

Only the van der Pol A-flow checks its result for overflow: its 2x2
factors grow like exp(t/eps).  The Gray-Scott and linear A-factors have
modulus at most 1 for Re(t) >= 0 and the feed is bounded, so a finite
state stays finite and a check there would only cost time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .exceptions import BlowUpError, RepresentationError, UnstableStepError, UnderResolvedWarning
from .spectral import (
    MODAL,
    NODAL,
    Field,
    TorusGrid,
    _grid_cache,
    _k_abs1,
    _kappa_sq,
    _widen,
    dealias_23,
    modal_tail_fraction,
    to_modal,
    to_nodal,
)

__all__ = [
    "GrayScottParams",
    "VdpParams",
    "SplitProblem",
    "gray_scott_problem",
    "gray_scott_abc_problem",
    "van_der_pol_problem",
    "linear_problem",
    "gs_commutator",
    "gs_reaction_jacobian",
    "initial_condition",
    "PRESETS",
]

# entries per flow-factor cache; the module docstring says why 3
_FLOW_TIMES = 3


@dataclass(frozen=True)
class GrayScottParams:
    """Feed rate alpha, kill rate beta, diffusivities c1 (u) and c2 (v)."""

    alpha: float = 0.038
    beta: float = 0.114
    c1: float = 0.04
    c2: float = 0.005


@dataclass(frozen=True)
class VdpParams:
    """Stiffness eps and the two diffusivities."""

    eps: float = 1e-3
    du: float = 1.0
    dv: float = 1.0


@dataclass(frozen=True)
class SplitProblem:
    """A right-hand side split into 2 or 3 operators.

    ``flows[i]`` propagates operator i exactly or by an inner method;
    ``rhs[i]`` evaluates the operator itself (used by diagnostics and
    oracle tests).  ``m`` is the component count of admissible states.
    """

    name: str
    flows: tuple
    rhs: tuple
    m: int

    @property
    def arity(self) -> int:
        return len(self.flows)

    def full_rhs(self, f: Field) -> Field:
        total = self.rhs[0](f)
        for r in self.rhs[1:]:
            total = total + r(f)
        return total


def _guarded(what: str, kernel, *args) -> np.ndarray:
    """``kernel(*args)`` as one array; overflow is a BlowUpError naming ``what``.

    np.asarray stacks a tuple of equal-shaped components as np.stack does,
    with the same dtype promotion, at a quarter of its per-call cost, and
    does not copy an array the kernel already returns.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.asarray(kernel(*args))
    if not np.isfinite(out).all():
        raise BlowUpError(f"{what}: state left the finite regime")
    return out


def _nodal(f: Field, what: str, kernel, *args, dealias: bool = False) -> Field:
    """Apply a pointwise kernel to the nodal components of ``f``.

    ``kernel(*components, *args)`` returns the new components, guarded by
    ``_guarded``; ``dealias`` applies the 2/3 rule to the result.
    """
    comps = to_nodal(f).data  # held to the end: freed sooner, 2D peak RSS rose 0.4 MB
    res = Field._of(f.grid, _guarded(what, kernel, *comps, *args), NODAL)
    return dealias_23(res) if dealias else res


def _modal(f: Field, what: str, kernel, table, *key, t=None, check: bool = False) -> Field:
    """Apply a per-mode kernel to the modal components of ``f``.

    ``kernel(c, tab, *key)`` returns the new modal data from the modal
    data ``c`` and ``tab = table(grid, *key, half)``, in the layout of
    ``c`` (``half`` for a real state).  A right-hand side passes no ``t``
    and gets its nodal values back.  A flow passes ``t`` (appended to
    ``key``) and gets the modal field: Re(t) < 0 is refused before the
    table lookup, and a complex t first widens a real state.  ``check``
    guards the kernel with ``_guarded``.
    """
    if t is not None:
        if complex(t).real < 0:
            raise UnstableStepError(
                f"{what}: refusing Re(t) = {complex(t).real:g} < 0 (backward diffusion)")
        if isinstance(t, complex):
            f = _widen(f)
        key += (t,)
    c = to_modal(f)
    tab = table(f.grid, *key, c.is_real)
    out = _guarded(what, kernel, c.data, tab, *key) if check else kernel(c.data, tab, *key)
    res = Field._of(f.grid, out, MODAL)
    return res if t is not None else to_nodal(res)


# ---------------------------------------------------------------------------
# Gray-Scott
# ---------------------------------------------------------------------------

@_grid_cache
def _gs_symbol(grid: TorusGrid, p: GrayScottParams, half: bool = False) -> np.ndarray:
    # per-mode rates (lambda_u, lambda_v) of A, stacked like the components
    ksq = _kappa_sq(grid, half)
    return np.stack([-p.c1 * ksq - p.alpha, -p.c2 * ksq - p.beta])


@_grid_cache(maxsize=_FLOW_TIMES)
def _gs_factor(grid: TorusGrid, p: GrayScottParams, t: complex,
               half: bool = False) -> np.ndarray:
    return np.exp(_gs_symbol(grid, p, half) * t)


def _gs_flow_kernel(c, factor, p, t):
    out = c * factor
    # affine feed acts on the mean mode only
    out[(0,) * c.ndim] += 1.0 - np.exp(-p.alpha * t)
    return out


def gs_linear_flow(t: complex, f: Field, p: GrayScottParams) -> Field:
    """Exact flow of A: diffusion + linear decay + constant feed alpha.

    Diagonal per mode; the mean of u relaxes toward 1 along
    u0 <- 1 + (u0 - 1)*exp(-alpha*t).
    """
    return _modal(f, "gs_linear_flow", _gs_flow_kernel, _gs_factor, p, t=t)


def _gs_rhs_kernel(c, sym, p):
    out = sym * c
    out[(0,) * c.ndim] += p.alpha
    return out


def _gs_rhs_a(f: Field, p: GrayScottParams) -> Field:
    return _modal(f, "gray_scott A", _gs_rhs_kernel, _gs_symbol, p)


def _gs_reaction_terms(u, v):
    w = u * v * v  # shared product keeps u+v conservation exact per stage
    return -w, w


def _gs_reaction_rk4(u, v, dt, steps):
    for _ in range(steps):
        k1u, k1v = _gs_reaction_terms(u, v)
        k2u, k2v = _gs_reaction_terms(u + 0.5 * dt * k1u, v + 0.5 * dt * k1v)
        k3u, k3v = _gs_reaction_terms(u + 0.5 * dt * k2u, v + 0.5 * dt * k2v)
        k4u, k4v = _gs_reaction_terms(u + dt * k3u, v + dt * k3v)
        u = u + (dt / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        v = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return u, v


def gs_reaction_flow_rk4(
    t: complex, f: Field, substep: float = 0.1, dealias: bool = False
) -> Field:
    """Propagate the pointwise reaction (-u*v^2, u*v^2) by classical RK4.

    Substep count is max(1, ceil(|t|/substep)).  The reaction conserves
    u+v at every node and RK4 inherits that up to roundoff.
    """
    steps = max(1, int(np.ceil(abs(t) / substep)))
    return _nodal(f, "gs_reaction_flow_rk4", _gs_reaction_rk4, t / steps, steps,
                  dealias=dealias)


def gs_reaction_b_flow(t: complex, f: Field, dealias: bool = False) -> Field:
    """Exact flow of B = (0, u*v^2): v <- v/(1 - u*v*t) with u frozen."""

    def riccati(u, v):
        denom = 1.0 - u * v * t
        if np.min(np.abs(denom)) < 1e-8:
            raise BlowUpError("gs_reaction_b_flow: Riccati pole reached")
        return u, v / denom

    return _nodal(f, "gs_reaction_b_flow", riccati, dealias=dealias)


def gs_reaction_c_flow(t: complex, f: Field, dealias: bool = False) -> Field:
    """Exact flow of the u-depletion piece: u <- u*exp(-v^2*t), v frozen."""
    return _nodal(f, "gs_reaction_c_flow", lambda u, v: (u * np.exp(-(v * v) * t), v),
                  dealias=dealias)


def _gs_rhs_b(f: Field) -> Field:
    return _nodal(f, "gray_scott B", _gs_reaction_terms)


def gs_reaction_jacobian(f: Field, w: Field) -> Field:
    """Directional derivative B'(U) W of the reaction at U along W."""

    def terms(u, v, w1, w2):
        top = -(v * v) * w1 - 2.0 * u * v * w2
        return top, -top

    return _nodal(f, "gs_reaction_jacobian", terms, *to_nodal(w).data)


def gs_commutator(f: Field, p: GrayScottParams) -> Field:
    """Commutator [A, B](U) = A(B(U)) - B'(U)(A U) by operator application.

    Both applications of A include the constant feed alpha.  Warns when
    the modal tail above n/4 carries more than 1e-8 of the energy, since
    the pointwise Jacobian is then polluted by aliasing.
    """
    if modal_tail_fraction(f) > 1e-8:
        warnings.warn(
            "gs_commutator: field under-resolved (modal tail > 1e-8 of energy)",
            UnderResolvedWarning,
            stacklevel=2,
        )
    ab = _gs_rhs_a(_gs_rhs_b(f), p)
    ba = gs_reaction_jacobian(f, _gs_rhs_a(f, p))
    return ab - ba


def gray_scott_problem(
    grid: TorusGrid,
    params: GrayScottParams = GrayScottParams(),
    rk4_substep: float = 0.1,
    dealias: bool = False,
) -> SplitProblem:
    """Two-operator Gray-Scott split: A linear/affine, B reaction via RK4."""
    return SplitProblem(
        name="gray_scott",
        flows=(
            partial(gs_linear_flow, p=params),
            partial(gs_reaction_flow_rk4, substep=rk4_substep, dealias=dealias),
        ),
        rhs=(partial(_gs_rhs_a, p=params), _gs_rhs_b),
        m=2,
    )


def gray_scott_abc_problem(
    grid: TorusGrid,
    params: GrayScottParams = GrayScottParams(),
    dealias: bool = False,
) -> SplitProblem:
    """Three-operator Gray-Scott split with closed-form reaction flows.

    B = (0, u*v^2) and C = (-u*v^2, 0); their sum is the full reaction.
    """

    def rhs_b(f):
        return _nodal(f, "gray_scott_abc B", lambda u, v: (np.zeros_like(u), u * v**2))

    def rhs_c(f):
        return _nodal(f, "gray_scott_abc C", lambda u, v: (-(u * v**2), np.zeros_like(u)))

    return SplitProblem(
        name="gray_scott_abc",
        flows=(
            partial(gs_linear_flow, p=params),
            partial(gs_reaction_b_flow, dealias=dealias),
            partial(gs_reaction_c_flow, dealias=dealias),
        ),
        rhs=(partial(_gs_rhs_a, p=params), rhs_b, rhs_c),
        m=2,
    )


# ---------------------------------------------------------------------------
# Van der Pol system
# ---------------------------------------------------------------------------

@_grid_cache
def _vdp_symbol(grid: TorusGrid, p: VdpParams, half: bool = False) -> tuple:
    # (m11, lap_v, tau, delta, tau + delta, tau - delta, 2 delta, m11 - tau,
    # m22 - tau): the first diagonal entry of M_k and the diffusive part
    # lap_v of m22, for the rhs; the eigenvalues tau +/- delta of M_k and
    # the other t-independent pieces of the flow's factors
    kap2 = _kappa_sq(grid, half)
    m11 = -p.du * kap2
    lap_v = -p.dv * kap2
    m22 = lap_v + 1.0 / p.eps
    disc = np.asarray(0.25 * (m11 - m22) ** 2 - 1.0 / p.eps, dtype=np.complex128)
    tau, delta = 0.5 * (m11 + m22), np.sqrt(disc)
    return m11, lap_v, tau, delta, tau + delta, tau - delta, 2.0 * delta, m11 - tau, m22 - tau


@_grid_cache(maxsize=_FLOW_TIMES)
def _vdp_factors(grid: TorusGrid, p: VdpParams, t: complex, half: bool = False) -> tuple:
    # (e11, e12, e21, e22) of exp(M_k t); e12 = sin_part since m12 = 1.  The
    # half layout takes a float t, for which exp(M_k t) is real: keep that part
    _, _, tau, delta, tau_p, tau_m, two_delta, d11, d22 = _vdp_symbol(grid, p, half)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ep = np.exp(tau_p * t)
        em = np.exp(tau_m * t)
        cos_part = 0.5 * (ep + em)
        sin_part = (ep - em) / two_delta
        dt_small = np.abs(delta * t) < 1e-6
        if dt_small.any():
            # (near-)defective modes: the quotient above loses its digits
            series = t * np.exp(tau * t) * (1.0 + (delta * t) ** 2 / 6.0)
            sin_part = np.where(dt_small, series, sin_part)
        out = (cos_part + sin_part * d11, sin_part, sin_part * (-1.0 / p.eps),
               cos_part + sin_part * d22)
    # a list, not a generator: tuple(generator) bypasses the 4-tuple free list,
    # which then grows by one tuple per call up to its cap (about 140 KB)
    return tuple([e.real.copy() for e in out]) if half else out


def _vdp_flow_kernel(c, factors, p, t):
    e11, e12, e21, e22 = factors
    return np.array([e11 * c[0] + e12 * c[1], e21 * c[0] + e22 * c[1]])


def vdp_linear_flow(t: complex, f: Field, p: VdpParams) -> Field:
    """Exact flow of the coupled linear operator, per-mode 2x2 exponential.

    M_k = [[-du*kap2, 1], [-1/eps, -dv*kap2 + 1/eps]],
    kap2 = (pi/a)^2 * sum k_j^2.  The exponential is evaluated through the
    eigenvalue pair tau +/- delta with a series fallback when delta*t is
    tiny (defective or near-defective mode).
    """
    return _modal(f, "vdp_linear_flow", _vdp_flow_kernel, _vdp_factors, p, t=t, check=True)


def _vdp_rhs_kernel(c, sym, p):
    m11, lap_v = sym[:2]
    return np.array([m11 * c[0] + c[1], lap_v * c[1] + (c[1] - c[0]) / p.eps])


def vdp_reaction_flow(t: complex, f: Field, p: VdpParams) -> Field:
    """Exact flow of B = (0, -u^2*v/eps): v <- v*exp(-u^2*t/eps)."""
    # u^2 need not have nonnegative real part mid-composition (complex
    # stage times), so the exponential may overflow
    return _nodal(f, "vdp_reaction_flow", lambda u, v: (u, v * np.exp(-(u * u) * t / p.eps)))


def van_der_pol_problem(grid: TorusGrid, params: VdpParams = VdpParams()) -> SplitProblem:
    """Two-operator split of the van der Pol reaction-diffusion system."""

    def rhs_a(f):
        return _modal(f, "van_der_pol A", _vdp_rhs_kernel, _vdp_symbol, params)

    def rhs_b(f):
        return _nodal(f, "van_der_pol B",
                      lambda u, v: (np.zeros_like(u), -(u * u) * v / params.eps))

    return SplitProblem(
        name="van_der_pol",
        flows=(partial(vdp_linear_flow, p=params), partial(vdp_reaction_flow, p=params)),
        rhs=(rhs_a, rhs_b),
        m=2,
    )


# ---------------------------------------------------------------------------
# Linear diagnostic problem
# ---------------------------------------------------------------------------

@_grid_cache
def _linear_symbol(grid: TorusGrid, diffusion: float, half: bool = False) -> np.ndarray:
    return -diffusion * _kappa_sq(grid, half)


@_grid_cache(maxsize=_FLOW_TIMES)
def _linear_factor(grid: TorusGrid, diffusion: float, t: complex,
                   half: bool = False) -> np.ndarray:
    return np.exp(_linear_symbol(grid, diffusion, half) * t)


def _linear_kernel(c, tab, *key):
    return c * tab


def linear_problem(
    grid: TorusGrid,
    diffusion: float = 0.5,
    potential: Optional[Callable] = None,
) -> SplitProblem:
    """u_t = diffusion*Lap(u) + V(x)*u with exact flows for both parts.

    ``potential`` maps the coordinate meshes to V values; None means
    V = 0, in which case A and B commute and any consistent splitting
    reproduces the exact flow of A+B.
    """
    if potential is None:
        vx = np.zeros(grid.shape)
    else:
        vx = np.asarray(potential(*grid.meshes()), dtype=np.float64)

    def flow_a(t, f):
        return _modal(f, "linear_problem A-flow", _linear_kernel, _linear_factor, diffusion, t=t)

    def flow_b(t, f):
        return _nodal(f, "linear_problem B-flow", lambda u: (u * np.exp(vx * t),))

    def rhs_a(f):
        return _modal(f, "linear_problem A", _linear_kernel, _linear_symbol, diffusion)

    def rhs_b(f):
        return _nodal(f, "linear_problem B", lambda u: (u * vx,))

    return SplitProblem(name="linear", flows=(flow_a, flow_b), rhs=(rhs_a, rhs_b), m=1)


# ---------------------------------------------------------------------------
# Initial condition presets
# ---------------------------------------------------------------------------

def _radius_sq(grid: TorusGrid):
    return sum(x * x for x in grid.meshes())


def gs_bump(grid: TorusGrid) -> Field:
    """Smooth Gaussian bump over the (0.5, 0.1) background state."""
    g = np.exp(-1.0 - _radius_sq(grid))
    return Field(grid, np.stack([0.5 + g, 0.1 + g]), NODAL)


def _rough_profile(grid: TorusGrid, q: float, amp: float, seed: int) -> np.ndarray:
    # power-law modal tail |c_k| ~ (1+|k|)^-q: limited Sobolev regularity
    rng = np.random.default_rng(seed)
    decay = (1.0 + _k_abs1(grid)) ** (-q)
    coef = decay * np.exp(2j * np.pi * rng.random(grid.shape))
    g = np.fft.ifftn(coef).real
    peak = np.max(np.abs(g))
    return amp * g / peak if peak > 0 else g


def gs_rough(grid: TorusGrid, q: float = 2.5, amp: float = 0.2, seed: int = 11) -> Field:
    """Background state plus a profile of limited smoothness.

    The modal coefficients decay like (1+|k|)^-q, so the field has only
    about q - 1/2 Sobolev derivatives; used to expose order reduction in
    stronger norms.  The reduction shows only when the grid resolves
    modes past the one-step cutoff k* ~ (c h)^(-1/2) of a diffusion with
    coefficient c; with the default Gray-Scott diffusivities and step
    sizes of 0.005 and up, n = 64 does not, n = 1024 does.
    """
    g1 = _rough_profile(grid, q, amp, seed)
    g2 = _rough_profile(grid, q, amp, seed + 1)
    return Field(grid, np.stack([0.5 + g1, 0.1 + g2]), NODAL)


def vdp_gaussians(grid: TorusGrid) -> Field:
    """u = exp(-x^2), v = 0.2*exp(-(x+2)^2); one-dimensional profile."""
    if grid.dim != 1:
        raise RepresentationError("vdp_gaussians preset is one-dimensional")
    x = grid.axis()
    return Field(grid, np.stack([np.exp(-(x * x)), 0.2 * np.exp(-((x + 2.0) ** 2))]), NODAL)


def random_smooth(grid: TorusGrid, m: int = 2, seed: int = 0, scale: float = 0.3) -> Field:
    """Random band-limited smooth field, reproducible from the seed."""
    rng = np.random.default_rng(seed)
    # hard cutoff at |k| <= n/8 keeps the field fully resolved on its grid
    decay = np.exp(-((_k_abs1(grid) / 4.0) ** 2)) * (_k_abs1(grid) <= grid.n / 8.0)
    data = np.empty((m,) + grid.shape, dtype=np.complex128)
    for i in range(m):
        coef = decay * (rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape))
        data[i] = np.fft.ifftn(coef).real
        peak = np.max(np.abs(data[i].real))
        if peak > 0:
            data[i] *= scale / peak
    return Field(grid, data, NODAL)


PRESETS = {
    "gs_bump": gs_bump,
    "gs_rough": gs_rough,
    "vdp_gaussians": vdp_gaussians,
    "random_smooth": random_smooth,
}


def initial_condition(name: str, grid: TorusGrid, **kwargs) -> Field:
    """Look up a named preset and evaluate it on the grid."""
    try:
        maker = PRESETS[name]
    except KeyError:
        raise RepresentationError(
            f"unknown initial condition {name!r}; choices: {sorted(PRESETS)}"
        ) from None
    return maker(grid, **kwargs)
