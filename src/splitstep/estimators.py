"""A-posteriori local error estimators built from scheme pairs.

Every estimator produces the integrator value S(h, u), a higher-quality
control value, and est_norm = ||S(h, u) - control||.  The three recipes:

* embedded:        control = controller step of order p+1; the first
                   shared stages are computed once and reused.
* adjoint average: control = (S + S*)/2 with S* the adjoint step.  For
                   odd order p the averaged value has order p+1 and
                   (S - S*)/2 is an asymptotically correct estimate.
* Milne device:    two schemes of the same order p whose leading error
                   terms are L and gamma*L.  Then
                   control = -gamma/(1-gamma)*S + 1/(1-gamma)*S~ and
                   (S - S~)/(1-gamma) estimates the error of S.

Norms are the discrete L2 norm over all components by default; a nodal
max norm is available for controllers that prefer it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError
from .problems import SplitProblem
from .schemes import SchemePair, apply_word
from .spectral import MODAL, Field, quadrature_l2, sobolev_norm, to_modal, to_nodal

__all__ = ["EstimateResult", "controller_norm", "estimate_step"]


@dataclass(frozen=True)
class EstimateResult:
    """Integrator value, control value, ||difference||, and work done."""

    u_next: Field
    u_control: Field
    est_norm: float
    flow_evals: int


def controller_norm(f: Field, kind: str = "l2") -> float:
    """Norm used for step control, over all components.

    "l2" is the discrete L2 norm (quadrature nodally, Parseval modally,
    identical up to roundoff); "max" is the nodal maximum magnitude.
    """
    if kind == "l2":
        return quadrature_l2(f) if f.space != MODAL else sobolev_norm(f, 0)
    if kind == "max":
        return float(np.max(np.abs(to_nodal(f).data)))
    raise ConfigError(f"unknown norm kind {kind!r}")


def _match_space(ref: Field, other: Field) -> Field:
    if other.space == ref.space:
        return other
    return to_modal(other) if ref.space == MODAL else to_nodal(other)


def _combine(ca, fa: Field, cb, fb: Field) -> Field:
    fb = _match_space(fa, fb)
    return Field(fa.grid, ca * fa.data + cb * fb.data, fa.space)


def estimate_step(pair: SchemePair, prob: SplitProblem, h: complex, f: Field,
                  norm: str = "l2") -> EstimateResult:
    """One integrator step with its paired local error estimate."""
    if pair.integrator.arity != prob.arity:
        raise ConfigError(
            f"pair {pair.name} has arity {pair.integrator.arity}, problem "
            f"{prob.name} has arity {prob.arity}"
        )
    if pair.kind == "embedded":
        return _estimate_embedded(pair, prob, h, f, norm)
    if pair.kind in ("adjoint_average", "palindromic"):
        return _estimate_two_scheme(pair.integrator, pair.partner, 0.5, 0.5,
                                    prob, h, f, norm)
    if pair.kind == "milne":
        g = pair.gamma
        return _estimate_two_scheme(pair.integrator, pair.partner,
                                    -g / (1.0 - g), 1.0 / (1.0 - g),
                                    prob, h, f, norm)
    raise ConfigError(f"unknown pair kind {pair.kind!r}")


def _estimate_embedded(pair, prob, h, f, norm) -> EstimateResult:
    L = pair.shared_prefix_len
    u_pref, n_pref = apply_word(pair.integrator.word(0, L), prob, h, f)
    u_next, n_int = apply_word(pair.integrator.word(L), prob, h, u_pref)
    u_ctrl, n_ctrl = apply_word(pair.controller.word(L), prob, h, u_pref)
    diff = _combine(1.0, u_next, -1.0, u_ctrl)
    return EstimateResult(u_next, u_ctrl, controller_norm(diff, norm),
                          n_pref + n_int + n_ctrl)


def _estimate_two_scheme(sa, sb, ca, cb, prob, h, f, norm) -> EstimateResult:
    ua, na = apply_word(sa.word(), prob, h, f)
    ub, nb = apply_word(sb.word(), prob, h, f)
    control = _combine(ca, ua, cb, ub)
    # est = ||S - control||; for the average this is ||(S - S*)/2||,
    # for Milne ||(S - S~)/(1 - gamma)||.
    diff = _combine(1.0, ua, -1.0, control)
    return EstimateResult(ua, control, controller_norm(diff, norm), na + nb)
