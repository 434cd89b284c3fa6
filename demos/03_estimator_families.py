"""
Three local error estimators on one step
========================================

Compares an embedded estimator and two Milne-device estimators against
the true local error (from a reference solve) as the step shrinks.
``lie-avg`` is a Milne pair without partner, which takes the adjoint
and gamma = -1, i.e. the adjoint average; ``lie-milne`` names the same
partner and gamma, so its rows repeat the ``lie-avg`` rows.  All are
asymptotically correct: est/true tends to 1.
"""

import math

from splitstep import (
    TorusGrid,
    builtin_registry,
    estimate_step,
    gray_scott_problem,
    initial_condition,
    reference_solution,
    sobolev_norm,
    to_nodal,
)

grid = TorusGrid(dim=1, a=math.pi, n=64)
problem = gray_scott_problem(grid)
u0 = initial_condition("gs_bump", grid)
registry = builtin_registry()

pairs = [registry.pairs[name] for name in ("emb23c", "lie-avg", "lie-milne")]

print("pair        kind             order   h        est         true        est/true")
for pair in pairs:
    for h in (0.04, 0.02, 0.01, 0.005):
        result = estimate_step(pair, problem, h, u0)
        exact, _ = reference_solution(problem, u0, 0.0, h, registry=registry,
                                      target={0.0: 1e-13})
        true = sobolev_norm(to_nodal(result.u_next) - to_nodal(exact), 0.0)
        print(f"{pair.name:<11} {pair.kind:<16} {pair.order:>3}   "
              f"{h:<7} {result.est_norm:.3e}   {true:.3e}   "
              f"{result.est_norm / true:7.4f}")
    print()

# lie-milne names lie* with gamma = -1, the partner and weight that lie-avg
# takes by default: the adjoint average of the A-first and B-first Lie steps
