"""Exact integer-programming oracles for the placement tests.

The WASP prototype calls Gurobi for its placement ILP (Section 8.1).  The
reproduction's production path is the greedy reduction in
:mod:`repro.planner.placement`, which is provably optimal for WASP's
one-stage-at-a-time placement.  The exact solvers here exist only to check
that reduction:

* :func:`solve_branch_and_bound` - a self-contained branch-and-bound solver
  over scipy's LP relaxation (``linprog``/HiGHS), the Gurobi stand-in for
  general instances;
* :func:`solve_with_milp` - the Equations 1-5 system handed to
  ``scipy.optimize.milp``.

Both need scipy, which is therefore a test-only dependency.

The branch-and-bound solver handles::

    min  c . x
    s.t. A_ub . x <= b_ub
         A_eq . x == b_eq
         lb <= x <= ub,  x integer

with best-bound pruning and most-fractional branching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from repro.errors import InfeasiblePlacementError, PlacementError
from repro.planner.placement import (
    NetworkView,
    PlacementProblem,
    PlacementSolution,
    per_site_capacity,
    site_cost_ms,
)


@dataclass(frozen=True)
class IntegerProgram:
    """A bounded integer linear program in standard minimization form."""

    c: np.ndarray
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = len(self.c)
        if n == 0:
            raise PlacementError("integer program has no variables")
        if self.a_ub is not None and self.a_ub.shape[1] != n:
            raise PlacementError("a_ub column count != len(c)")
        if self.a_eq is not None and self.a_eq.shape[1] != n:
            raise PlacementError("a_eq column count != len(c)")
        if self.lb is not None and len(self.lb) != n:
            raise PlacementError("lb length != len(c)")
        if self.ub is not None and len(self.ub) != n:
            raise PlacementError("ub length != len(c)")

    @property
    def n_vars(self) -> int:
        return len(self.c)


@dataclass(frozen=True)
class IlpSolution:
    """An optimal integer solution."""

    x: np.ndarray
    objective: float
    nodes_explored: int


class Infeasible(PlacementError):
    """No integer point satisfies the constraints."""


_INT_TOL = 1e-6


def _solve_relaxation(
    program: IntegerProgram,
    extra_lb: np.ndarray,
    extra_ub: np.ndarray,
) -> tuple[np.ndarray, float] | None:
    """LP relaxation under tightened bounds; None if infeasible."""
    bounds = list(zip(extra_lb, extra_ub))
    if any(lo > hi + 1e-12 for lo, hi in bounds):
        return None
    result = linprog(
        c=program.c,
        A_ub=program.a_ub,
        b_ub=program.b_ub,
        A_eq=program.a_eq,
        b_eq=program.b_eq,
        bounds=bounds,
        method="highs",
    )
    if not result.success:
        return None
    return result.x, float(result.fun)


def solve_branch_and_bound(
    program: IntegerProgram, *, max_nodes: int = 100_000
) -> IlpSolution:
    """Solve the integer program exactly.

    Raises:
        Infeasible: When no integer-feasible point exists.
        PlacementError: When the node budget is exhausted (pathological
            instances only; placement instances explore a handful of nodes).
    """
    n = program.n_vars
    lb = program.lb if program.lb is not None else np.zeros(n)
    ub = program.ub if program.ub is not None else np.full(n, np.inf)

    best_x: np.ndarray | None = None
    best_obj = math.inf
    nodes = 0
    # Stack of (lb, ub) bound pairs - depth-first keeps memory small while
    # best-bound pruning keeps the tree shallow.
    stack: list[tuple[np.ndarray, np.ndarray]] = [(lb.copy(), ub.copy())]

    while stack:
        node_lb, node_ub = stack.pop()
        nodes += 1
        if nodes > max_nodes:
            raise PlacementError(
                f"branch-and-bound exceeded {max_nodes} nodes"
            )
        relaxed = _solve_relaxation(program, node_lb, node_ub)
        if relaxed is None:
            continue
        x, obj = relaxed
        if obj >= best_obj - 1e-9:
            continue  # bound: cannot beat incumbent
        frac = np.abs(x - np.round(x))
        fractional = np.where(frac > _INT_TOL)[0]
        if len(fractional) == 0:
            x_int = np.round(x)
            best_x = x_int
            best_obj = float(program.c @ x_int)
            continue
        # Branch on the most fractional variable.
        j = int(fractional[np.argmax(frac[fractional])])
        floor_v = math.floor(x[j])
        # Explore the branch closer to the relaxation first (pushed last).
        lo_lb, lo_ub = node_lb.copy(), node_ub.copy()
        lo_ub[j] = floor_v
        hi_lb, hi_ub = node_lb.copy(), node_ub.copy()
        hi_lb[j] = floor_v + 1
        if x[j] - floor_v > 0.5:
            stack.append((lo_lb, lo_ub))
            stack.append((hi_lb, hi_ub))
        else:
            stack.append((hi_lb, hi_ub))
            stack.append((lo_lb, lo_ub))

    if best_x is None:
        raise Infeasible("no integer-feasible solution")
    return IlpSolution(x=best_x, objective=best_obj, nodes_explored=nodes)


def solve_with_milp(
    problem: PlacementProblem,
    network: NetworkView,
) -> PlacementSolution:
    """Reference MILP solution via scipy, used to cross-check the greedy.

    Solves ``min c.x`` subject to ``0 <= x[s] <= cap[s]`` and
    ``sum x = p`` with integrality, which is the full Equations 1-5 system
    after folding the per-site bandwidth constraints into ``cap``.
    """
    sites = sorted(problem.available_slots)
    costs = np.array(
        [site_cost_ms(site, problem, network) for site in sites]
    )
    caps = np.array(
        [per_site_capacity(site, problem, network) for site in sites],
        dtype=float,
    )
    if caps.sum() < problem.parallelism:
        raise InfeasiblePlacementError(
            f"cannot place {problem.parallelism} tasks (milp)"
        )
    constraint = LinearConstraint(
        np.ones((1, len(sites))), problem.parallelism, problem.parallelism
    )
    result = milp(
        c=costs,
        constraints=[constraint],
        integrality=np.ones(len(sites)),
        bounds=Bounds(0, caps),
    )
    if not result.success:
        raise InfeasiblePlacementError(f"milp failed: {result.message}")
    assignment = {
        site: int(round(x))
        for site, x in zip(sites, result.x)
        if round(x) > 0
    }
    return PlacementSolution(
        assignment=assignment,
        cost=float(result.fun),
        per_site_cost={s: float(c) for s, c in zip(sites, costs)},
    )
