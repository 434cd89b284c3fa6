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
checks (overflow is a BlowUpError) and dealiases.  Modal operators read
their symbol from a read-only cache per (grid, params) (``_kappa_sq``,
``_gs_symbol``, ``_vdp_symbol``) shared by the flow and the rhs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Optional

import numpy as np

from .exceptions import BlowUpError, RepresentationError, UnstableStepError, UnderResolvedWarning
from .spectral import (
    MODAL,
    NODAL,
    Field,
    TorusGrid,
    _k_abs1,
    _k_sq,
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


def _require_forward(t: complex, what: str):
    if complex(t).real < 0:
        raise UnstableStepError(
            f"{what}: refusing Re(t) = {complex(t).real:g} < 0 (backward diffusion)"
        )


def _check_finite(data: np.ndarray, what: str):
    if not np.all(np.isfinite(data.view(np.float64))):
        raise BlowUpError(f"{what}: state left the finite regime")


def _nodal(f: Field, what: str, kernel, *args, dealias: bool = False) -> Field:
    """Apply a pointwise kernel to the nodal components of ``f``.

    ``kernel(*components, *args)`` returns the new components.  Overflow
    in the kernel surfaces as BlowUpError naming ``what``, not as a
    warning; ``dealias`` applies the 2/3 rule to the result.
    """
    comps = to_nodal(f).data
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.stack(kernel(*comps, *args))
    _check_finite(out, what)
    res = Field(f.grid, out, NODAL)
    return dealias_23(res) if dealias else res


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=64)
def _kappa_sq(grid: TorusGrid) -> np.ndarray:
    # (pi/a)^2 * sum k_j^2: minus the Laplacian's multiplier
    return _read_only(_k_sq(grid) * (np.pi / grid.a) ** 2)[0]


# ---------------------------------------------------------------------------
# Gray-Scott
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _gs_symbol(grid: TorusGrid, p: GrayScottParams) -> np.ndarray:
    # per-mode rates (lambda_u, lambda_v) of A, stacked like the components
    ksq = _kappa_sq(grid)
    return _read_only(np.stack([-p.c1 * ksq - p.alpha, -p.c2 * ksq - p.beta]))[0]


def gs_linear_flow(t: complex, f: Field, p: GrayScottParams) -> Field:
    """Exact flow of A: diffusion + linear decay + constant feed alpha.

    Diagonal per mode; the mean of u relaxes toward 1 along
    u0 <- 1 + (u0 - 1)*exp(-alpha*t).
    """
    _require_forward(t, "gs_linear_flow")
    out = to_modal(f).data * np.exp(_gs_symbol(f.grid, p) * t)
    # affine feed acts on the mean mode only
    out[(0,) * (f.grid.dim + 1)] += 1.0 - np.exp(-p.alpha * t)
    return Field(f.grid, out, MODAL)


def _gs_rhs_a(f: Field, p: GrayScottParams) -> Field:
    out = _gs_symbol(f.grid, p) * to_modal(f).data
    out[(0,) * (f.grid.dim + 1)] += p.alpha
    return to_nodal(Field(f.grid, out, MODAL))


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

@lru_cache(maxsize=64)
def _vdp_symbol(grid: TorusGrid, p: VdpParams) -> tuple:
    # (m11, lap_v, m22, tau, delta): the diagonal of M_k, the diffusive
    # part lap_v of m22, and the eigenvalues tau +/- delta of M_k
    kap2 = _kappa_sq(grid)
    m11 = -p.du * kap2
    lap_v = -p.dv * kap2
    m22 = lap_v + 1.0 / p.eps
    disc = np.asarray(0.25 * (m11 - m22) ** 2 - 1.0 / p.eps, dtype=np.complex128)
    return _read_only(m11, lap_v, m22, 0.5 * (m11 + m22), np.sqrt(disc))


def vdp_linear_flow(t: complex, f: Field, p: VdpParams) -> Field:
    """Exact flow of the coupled linear operator, per-mode 2x2 exponential.

    M_k = [[-du*kap2, 1], [-1/eps, -dv*kap2 + 1/eps]],
    kap2 = (pi/a)^2 * sum k_j^2.  The exponential is evaluated through the
    eigenvalue pair tau +/- delta with a series fallback when delta*t is
    tiny (defective or near-defective mode).
    """
    _require_forward(t, "vdp_linear_flow")
    c = to_modal(f).data
    m11, _, m22, tau, delta = _vdp_symbol(f.grid, p)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ep = np.exp((tau + delta) * t)
        em = np.exp((tau - delta) * t)
        cos_part = 0.5 * (ep + em)
        dt_small = np.abs(delta * t) < 1e-6
        sin_part = np.where(dt_small, 1.0, (ep - em) / (2.0 * delta))
        series = t * np.exp(tau * t) * (1.0 + (delta * t) ** 2 / 6.0)
        sin_part = np.where(dt_small, series, sin_part)

        # e12 = sin_part since m12 = 1
        e11 = cos_part + sin_part * (m11 - tau)
        e21 = sin_part * (-1.0 / p.eps)
        e22 = cos_part + sin_part * (m22 - tau)
        out = np.stack([e11 * c[0] + sin_part * c[1], e21 * c[0] + e22 * c[1]])
    _check_finite(out, "vdp_linear_flow")
    return Field(f.grid, out, MODAL)


def vdp_reaction_flow(t: complex, f: Field, p: VdpParams) -> Field:
    """Exact flow of B = (0, -u^2*v/eps): v <- v*exp(-u^2*t/eps)."""
    # u^2 need not have nonnegative real part mid-composition (complex
    # stage times), so the exponential may overflow
    return _nodal(f, "vdp_reaction_flow", lambda u, v: (u, v * np.exp(-(u * u) * t / p.eps)))


def van_der_pol_problem(grid: TorusGrid, params: VdpParams = VdpParams()) -> SplitProblem:
    """Two-operator split of the van der Pol reaction-diffusion system."""

    def rhs_a(f):
        c = to_modal(f).data
        m11, lap_v = _vdp_symbol(f.grid, params)[:2]
        out = np.stack([m11 * c[0] + c[1], lap_v * c[1] + (c[1] - c[0]) / params.eps])
        return to_nodal(Field(f.grid, out, MODAL))

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
    lam = -diffusion * _kappa_sq(grid)  # symbol of A
    if potential is None:
        vx = np.zeros(grid.shape)
    else:
        vx = np.asarray(potential(*grid.meshes()), dtype=np.float64)

    def flow_a(t, f):
        _require_forward(t, "linear_problem A-flow")
        return Field(f.grid, to_modal(f).data * np.exp(lam * t), MODAL)

    def flow_b(t, f):
        return _nodal(f, "linear_problem B-flow", lambda u: (u * np.exp(vx * t),))

    def rhs_a(f):
        return to_nodal(Field(f.grid, lam * to_modal(f).data, MODAL))

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
