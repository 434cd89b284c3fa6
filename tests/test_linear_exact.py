"""Exact checks of the flows and the local error estimators on the linear problem.

On ``linear_problem`` at n = 16 the operators A (diffusion) and B (the
potential) are 16x16 matrices, read off the right-hand sides applied to
unit vectors.  The problem's flows are exact, so every step of a scheme
is a product of matrix exponentials and the exact local flow is
expm(h(A+B)): the estimators' quality is measured without a fitted
slope or a numerical reference.
"""

import numpy as np
import pytest

from _oracles import expm_dense

from splitstep import (
    Field,
    TorusGrid,
    builtin_registry,
    estimate_step,
    initial_condition,
    linear_problem,
    sobolev_norm,
    to_nodal,
)

REG = builtin_registry()
GRID = TorusGrid(1, np.pi, 16)
HS = (0.1, 0.025, 0.00625)
TWO_OPERATOR_PAIRS = sorted(n for n, p in REG.pairs.items() if p.integrator.arity == 2)


def lin_prob():
    return linear_problem(GRID, diffusion=0.2, potential=np.cos)


def lin_state():
    return initial_condition("random_smooth", GRID, m=1, seed=42)


def dense(op):
    """The matrix of a linear map of nodal states, column by column."""
    M = np.empty((GRID.n, GRID.n), dtype=np.complex128)
    for j in range(GRID.n):
        e = np.zeros(GRID.n)
        e[j] = 1.0
        M[:, j] = to_nodal(op(Field(GRID, e))).data[0]
    return M


@pytest.mark.parametrize("t", [0.1, 0.3 + 0.2j, 0.3 - 0.2j])
def test_each_flow_is_the_exponential_of_its_operator(t):
    prob = lin_prob()
    for flow, rhs in zip(prob.flows, prob.rhs):
        exact = expm_dense(t * dense(rhs))
        assert np.max(np.abs(dense(lambda f: flow(t, f)) - exact)) <= 1e-12


def true_local_error(prob, u_next, u0, h):
    generator = dense(prob.rhs[0]) + dense(prob.rhs[1])
    exact = expm_dense(h * generator) @ to_nodal(u0).data[0]
    return sobolev_norm(to_nodal(u_next) - Field(GRID, exact[None]), 0.0)


@pytest.mark.parametrize("name", TWO_OPERATOR_PAIRS)
def test_estimate_over_true_local_error_tends_to_one_at_least_linearly(name):
    prob, u0 = lin_prob(), lin_state()
    devs, trues = [], []
    for h in HS:
        res = estimate_step(REG.pair(name), prob, h, u0)
        trues.append(true_local_error(prob, res.u_next, u0, h))
        devs.append(abs(res.est_norm / trues[-1] - 1.0))
    assert devs[0] < 0.05, devs
    # each h/4 cuts the deviation by 4^0.9 or more; the allowance is the
    # roundoff in a true error of ~1e-12 (comp3c-avg at the finest h)
    roundoff = 1e-15 * sobolev_norm(u0, 0.0)
    for k in (1, 2):
        rate = (HS[k] / HS[k - 1]) ** 0.9
        assert devs[k] <= rate * devs[k - 1] + roundoff / trues[k], (name, devs)


def test_lie_milne_and_lie_avg_give_equal_estimates():
    # the Milne device over lie* with gamma = -1 is the adjoint average of lie
    prob, u0 = lin_prob(), lin_state()
    for h in HS:
        milne = estimate_step(REG.pair("lie-milne"), prob, h, u0)
        avg = estimate_step(REG.pair("lie-avg"), prob, h, u0)
        assert milne.est_norm == avg.est_norm
