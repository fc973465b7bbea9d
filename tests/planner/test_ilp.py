"""Tests for the branch-and-bound ILP oracle (tests/planner/oracles.py)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlacementError
from tests.planner.oracles import (
    Infeasible,
    IntegerProgram,
    solve_branch_and_bound,
)


class TestBasicSolving:
    def test_unconstrained_minimum_at_lower_bounds(self):
        program = IntegerProgram(
            c=np.array([1.0, 2.0]), lb=np.zeros(2), ub=np.array([5.0, 5.0])
        )
        solution = solve_branch_and_bound(program)
        assert solution.objective == 0.0

    def test_equality_constraint(self):
        # min x0 + 3 x1  s.t.  x0 + x1 == 4, 0 <= x <= 3
        program = IntegerProgram(
            c=np.array([1.0, 3.0]),
            a_eq=np.array([[1.0, 1.0]]),
            b_eq=np.array([4.0]),
            lb=np.zeros(2),
            ub=np.array([3.0, 3.0]),
        )
        solution = solve_branch_and_bound(program)
        assert list(solution.x) == [3.0, 1.0]
        assert solution.objective == pytest.approx(6.0)

    def test_inequality_constraint(self):
        # max x (== min -x) s.t. 2x <= 7, integer -> x = 3.
        program = IntegerProgram(
            c=np.array([-1.0]),
            a_ub=np.array([[2.0]]),
            b_ub=np.array([7.0]),
            lb=np.zeros(1),
            ub=np.array([10.0]),
        )
        solution = solve_branch_and_bound(program)
        assert solution.x[0] == 3.0

    def test_knapsack(self):
        # max 10a + 6b + 4c s.t. a+b+c <= 2, binary.
        program = IntegerProgram(
            c=np.array([-10.0, -6.0, -4.0]),
            a_ub=np.array([[1.0, 1.0, 1.0]]),
            b_ub=np.array([2.0]),
            lb=np.zeros(3),
            ub=np.ones(3),
        )
        solution = solve_branch_and_bound(program)
        assert solution.objective == pytest.approx(-16.0)

    def test_infeasible_raises(self):
        program = IntegerProgram(
            c=np.array([1.0]),
            a_eq=np.array([[1.0]]),
            b_eq=np.array([5.0]),
            lb=np.zeros(1),
            ub=np.array([2.0]),
        )
        with pytest.raises(Infeasible):
            solve_branch_and_bound(program)

    def test_fractional_lp_optimum_forces_branching(self):
        # LP relaxation optimum is x = 3.5; integers give 3.
        program = IntegerProgram(
            c=np.array([-1.0]),
            a_ub=np.array([[2.0]]),
            b_ub=np.array([7.0]),
            lb=np.zeros(1),
            ub=np.array([100.0]),
        )
        solution = solve_branch_and_bound(program)
        assert solution.x[0] == 3.0
        assert solution.nodes_explored >= 2


class TestValidation:
    def test_empty_program_rejected(self):
        with pytest.raises(PlacementError):
            IntegerProgram(c=np.array([]))

    def test_mismatched_constraint_width_rejected(self):
        with pytest.raises(PlacementError):
            IntegerProgram(
                c=np.array([1.0]), a_ub=np.array([[1.0, 2.0]]),
                b_ub=np.array([1.0]),
            )

    def test_mismatched_bounds_rejected(self):
        with pytest.raises(PlacementError):
            IntegerProgram(c=np.array([1.0, 2.0]), lb=np.zeros(3))


class TestAgainstScipyMilp:
    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_scipy_on_placement_shaped_instances(
        self, n_sites, p, seed
    ):
        """Random placement-shaped ILPs: min c.x, sum x = p, 0 <= x <= u."""
        from scipy.optimize import Bounds, LinearConstraint, milp

        rng = np.random.default_rng(seed)
        c = rng.uniform(1.0, 100.0, n_sites)
        ub = rng.integers(0, 6, n_sites).astype(float)
        if ub.sum() < p:
            return  # infeasible by construction; covered elsewhere
        program = IntegerProgram(
            c=c,
            a_eq=np.ones((1, n_sites)),
            b_eq=np.array([float(p)]),
            lb=np.zeros(n_sites),
            ub=ub,
        )
        ours = solve_branch_and_bound(program)
        reference = milp(
            c=c,
            constraints=[LinearConstraint(np.ones((1, n_sites)), p, p)],
            integrality=np.ones(n_sites),
            bounds=Bounds(0, ub),
        )
        assert reference.success
        assert ours.objective == pytest.approx(reference.fun, rel=1e-6)
