"""A-posteriori local error estimators built from scheme pairs.

Every estimator produces the integrator value S(h, u), a higher-quality
control value, and est_norm = ||S(h, u) - control||.  Both pair kinds are
one recipe (:class:`SchemePair`): the first ``shared_prefix_len`` stages
run once, then S and the second scheme S~ finish from that state.  The
control value is S~ for an embedded pair and -gamma/(1-gamma)*S +
1/(1-gamma)*S~ for a Milne pair, so est = ||(S - S~)/(1-gamma)||; the
adjoint average (S + S*)/2 is the Milne pair with S~ = S*, gamma = -1.
S and S~ may end in different spaces; ``spectral._in_space`` brings S~
and the control value into the space of S with at most one transform.

Norms are the discrete L2 norm over all components by default; a nodal
max norm is available for controllers that prefer it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError
from .problems import SplitProblem
from .schemes import SchemePair, _same_arity, apply_word
from .spectral import MODAL, Field, _in_space, quadrature_l2, sobolev_norm, to_nodal

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


def estimate_step(pair: SchemePair, prob: SplitProblem, h: complex, f: Field,
                  norm: str = "l2") -> EstimateResult:
    """One integrator step with its paired local error estimate."""
    _same_arity(pair.integrator, prob, f"pair {pair.name}: ")
    u_pref, n_pref = apply_word(pair.prefix_word, prob, h, f) if pair.prefix_word else (f, 0)
    u_next, n_int = apply_word(pair.integrator_word, prob, h, u_pref)
    u_second, n_second = apply_word(pair.second_word, prob, h, u_pref)
    g = pair.gamma
    # an embedded controller's value stays in its own space; Field arithmetic
    # widens a real operand to meet a complex one or a complex weight
    control = u_second if g is None else (u_next * (-g / (1.0 - g))
                                          + _in_space(u_second, u_next.space) * (1.0 / (1.0 - g)))
    diff = u_next - _in_space(control, u_next.space)
    return EstimateResult(u_next, control, controller_norm(diff, norm),
                          n_pref + n_int + n_second)
