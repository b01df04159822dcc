"""Tests for :func:`repro.solver.solve_model`, the one (HiGHS) solver path.

Every model, LP or MILP, goes through the same export and ``milp`` call, so
the LP cases below pin the semantics of that export: max sense, ``<=``/``>=``/
``==`` rows, variable bounds and the objective constant.  The property tests
check it against scipy called directly (``linprog`` for LPs, ``milp`` for
ILPs, both at HiGHS's defaults); those oracles live only here.
``TestHighsOptions`` pins the options ``solve_model`` adds and the one
warning it silences.
"""

import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import Bounds, LinearConstraint, OptimizeWarning, linprog, milp

from repro.solver import ConstraintModel, SolveStatus, scipy_backend, solve_model
from repro.solver.expressions import LinearExpr


def knapsack_model():
    """0/1 knapsack: values (10, 13, 7), weights (3, 4, 2), capacity 6 -> 20.

    Two optima exist ({0, 2} and {1, 2}); item 2 is in both.
    """
    model = ConstraintModel("knapsack")
    x = [model.add_var(f"x{i}", lb=0, ub=1, integer=True) for i in range(3)]
    model.add_constraint(3 * x[0] + 4 * x[1] + 2 * x[2] <= 6)
    model.set_objective(10 * x[0] + 13 * x[1] + 7 * x[2], sense="max")
    return model, x


class TestScipyBackend:
    def test_knapsack_optimum(self):
        model, x = knapsack_model()
        result = solve_model(model)
        assert result.status == SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(20.0)
        assert result.int_value(x[2]) == 1

    def test_infeasible_detected(self):
        model = ConstraintModel()
        v = model.add_var("v", lb=0, ub=1, integer=True)
        model.add_constraint(v >= 2)
        result = solve_model(model)
        assert result.status == SolveStatus.INFEASIBLE

    def test_pure_lp_path(self):
        model = ConstraintModel()
        x = model.add_var("x", lb=0, ub=4)
        y = model.add_var("y", lb=0, ub=4)
        model.add_constraint(x + y <= 6)
        model.set_objective(x + 2 * y, sense="max")
        result = solve_model(model)
        assert result.status == SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(10.0)
        assert result.nodes == 0

    def test_named_dict(self):
        model, _ = knapsack_model()
        result = solve_model(model)
        named = result.as_named_dict()
        assert set(named) == {"x0", "x1", "x2"}


class TestHighsOptions:
    def test_an_integer_solve_warns_nothing(self):
        model, _ = knapsack_model()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = solve_model(model, time_limit=10.0)
        assert result.status == SolveStatus.OPTIMAL

    @pytest.mark.parametrize("time_limit", [None, 2.5])
    def test_milp_gets_the_options(self, monkeypatch, time_limit):
        received = []

        def recording_milp(**kwargs):
            received.append(kwargs["options"])
            res = milp(**kwargs)
            res.mip_node_count = 7
            return res

        monkeypatch.setattr(scipy_backend, "milp", recording_milp)
        model, _ = knapsack_model()
        result = solve_model(model, time_limit=time_limit)
        expected = {"mip_heuristic_run_feasibility_jump": False}
        if time_limit is not None:
            expected["time_limit"] = time_limit
        assert received == [expected]
        assert result.nodes == 7

    def test_other_warnings_pass(self, monkeypatch):
        # A HiGHS without the option, and a note naming another option.
        unknown = "Unrecognized options detected: {'mip_heuristic_run_feasibility_jump': False}"
        other = "Unrecognized options detected: {'other_option'}. These will be passed verbatim."

        def warning_milp(**kwargs):
            warnings.warn(unknown, OptimizeWarning)
            warnings.warn(other, RuntimeWarning)
            return milp(**kwargs)

        monkeypatch.setattr(scipy_backend, "milp", warning_milp)
        model, _ = knapsack_model()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solve_model(model)
        assert [(w.category, str(w.message)) for w in caught] == [
            (OptimizeWarning, unknown),
            (RuntimeWarning, other),
        ]

    def test_default_warnings_repeat_after_each_solve(self, monkeypatch):
        # ``catch_warnings`` resets every module's once-per-location record,
        # so a HiGHS without the option warns on every solve, and a warning
        # shown under the "default" action elsewhere shows again after one.
        unknown = "Unrecognized options detected: {'mip_heuristic_run_feasibility_jump': False}"

        def warning_milp(**kwargs):
            warnings.warn(unknown, OptimizeWarning)
            return milp(**kwargs)

        monkeypatch.setattr(scipy_backend, "milp", warning_milp)
        model, _ = knapsack_model()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            for _ in range(3):
                solve_model(model)
                warnings.warn("elsewhere", UserWarning)
        assert [w.category for w in caught] == [OptimizeWarning, UserWarning] * 3

    def test_concurrent_solves_warn_nothing(self):
        # Each solve swaps the process-wide warning filters; unserialized, one
        # thread restores them while another is inside ``milp``.
        model, _ = knapsack_model()
        errors = []

        def solve_many():
            try:
                for _ in range(150):
                    solve_model(model)
            except Exception as error:  # noqa: BLE001 - collected for the assert
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                threads = [threading.Thread(target=solve_many) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []


def lp(num_vars, lb=0, ub=None):
    model = ConstraintModel("lp")
    return model, [model.add_var(f"x{i}", lb=lb, ub=ub) for i in range(num_vars)]


class TestLPSemantics:
    """Known LPs, solved without any integer column."""

    def test_max_sense(self):
        # max 3x + 2y  s.t. x + y <= 4, x + 3y <= 6  -> (4, 0), objective 12.
        model, (x, y) = lp(2)
        model.add_constraint(x + y <= 4)
        model.add_constraint(x + 3 * y <= 6)
        model.set_objective(3 * x + 2 * y, sense="max")
        result = solve_model(model)
        assert result.status == SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(12.0)
        assert result.value(x) == pytest.approx(4.0)

    def test_objective_constant(self):
        # min x + 5 with x >= 2 (a >= row) in both senses of the constant.
        model, (x,) = lp(1)
        model.add_constraint(x >= 2)
        model.set_objective(x + 5)
        assert solve_model(model).objective == pytest.approx(7.0)
        model.set_objective(-1 * x + 5, sense="max")
        assert solve_model(model).objective == pytest.approx(3.0)

    def test_equality_constraints(self):
        # min x + y s.t. x + y == 5, x - y == 1 -> (3, 2).
        model, (x, y) = lp(2)
        model.add_constraint(x + y == 5)
        model.add_constraint(x - y == 1)
        model.set_objective(x + y)
        result = solve_model(model)
        assert result.status == SolveStatus.OPTIMAL
        assert [result.value(x), result.value(y)] == pytest.approx([3.0, 2.0])

    def test_infeasible(self):
        model, (x,) = lp(1)
        model.add_constraint(x <= 1)
        model.add_constraint(x >= 3)
        model.set_objective(x)
        assert solve_model(model).status == SolveStatus.INFEASIBLE

    def test_unbounded(self):
        # min -x with x >= 0 and no upper restriction.
        model, (x,) = lp(1)
        model.set_objective(-1 * x)
        assert solve_model(model).status == SolveStatus.UNBOUNDED

    def test_upper_bounds_respected(self):
        model = ConstraintModel()
        x = model.add_var("x", lb=0, ub=2)
        y = model.add_var("y", lb=0, ub=3)
        model.set_objective(x + y, sense="max")
        result = solve_model(model)
        assert result.status == SolveStatus.OPTIMAL
        assert [result.value(x), result.value(y)] == pytest.approx([2.0, 3.0])

    def test_negative_lower_bounds(self):
        model, (x,) = lp(1, lb=-5, ub=5)
        model.set_objective(x)
        result = solve_model(model)
        assert result.status == SolveStatus.OPTIMAL
        assert result.value(x) == pytest.approx(-5.0)

    def test_free_variable(self):
        # min x with x free and x >= -7 stated as a row, not a bound.
        model, (x,) = lp(1, lb=None)
        model.add_constraint(x >= -7)
        model.set_objective(x)
        result = solve_model(model)
        assert result.status == SolveStatus.OPTIMAL
        assert result.value(x) == pytest.approx(-7.0)

    def test_degenerate_problem_terminates(self):
        # Beale's classic degenerate LP, on which a naive simplex cycles.
        model, xs = lp(4)
        rows = [
            ([0.5, -5.5, -2.5, 9.0], 0.0),
            ([0.5, -1.5, -0.5, 1.0], 0.0),
            ([1.0, 0.0, 0.0, 0.0], 1.0),
        ]
        for coeffs, rhs in rows:
            model.add_constraint(LinearExpr.sum(a * x for a, x in zip(coeffs, xs)) <= rhs)
        cost = [-10.0, 57.0, 9.0, 24.0]
        model.set_objective(LinearExpr.sum(a * x for a, x in zip(cost, xs)))
        result = solve_model(model)
        assert result.status == SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(-1.0, abs=1e-6)

    def test_transportation_like_flow(self):
        # Two sources (supply 3, 2), two sinks (demand 2, 3); min cost.
        model, (x11, x12, x21, x22) = lp(4)
        model.add_constraint(x11 + x12 == 3)
        model.add_constraint(x21 + x22 == 2)
        model.add_constraint(x11 + x21 == 2)
        model.add_constraint(x12 + x22 == 3)
        model.set_objective(4 * x11 + 6 * x12 + 5 * x21 + 3 * x22)
        result = solve_model(model)
        assert result.status == SolveStatus.OPTIMAL
        a_eq = np.array(
            [[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]], dtype=float
        )
        ref = linprog([4, 6, 5, 3], A_eq=a_eq, b_eq=[3, 2, 2, 3], method="highs")
        assert result.objective == pytest.approx(ref.fun, abs=1e-6)


def model_from_rows(c, rows, rhs, ub, integer):
    """``min c @ x`` s.t. ``rows @ x <= rhs`` and ``0 <= x <= ub``."""
    model = ConstraintModel()
    xs = [model.add_var(f"x{i}", lb=0, ub=u, integer=integer) for i, u in enumerate(ub)]
    for row, b in zip(rows, rhs):
        model.add_constraint(LinearExpr.sum(coef * x for coef, x in zip(row, xs)) <= b)
    model.set_objective(LinearExpr.sum(coef * x for coef, x in zip(c, xs)))
    return model


@st.composite
def random_lp(draw):
    """Random bounded-feasible LPs: box bounds guarantee boundedness."""
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=0, max_value=4))
    c = [draw(st.integers(min_value=-5, max_value=5)) for _ in range(n)]
    a_rows = [
        [draw(st.integers(min_value=-3, max_value=3)) for _ in range(n)]
        for _ in range(m)
    ]
    b = [draw(st.integers(min_value=0, max_value=12)) for _ in range(m)]
    ub = [draw(st.integers(min_value=1, max_value=8)) for _ in range(n)]
    return c, a_rows, b, ub


@st.composite
def random_ilp(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=1, max_value=3))
    c = [draw(st.integers(min_value=-4, max_value=4)) for _ in range(n)]
    rows = [
        [draw(st.integers(min_value=-2, max_value=3)) for _ in range(n)]
        for _ in range(m)
    ]
    rhs = [draw(st.integers(min_value=0, max_value=10)) for _ in range(m)]
    ub = [draw(st.integers(min_value=1, max_value=4)) for _ in range(n)]
    return c, rows, rhs, ub


class TestAgainstScipyOracles:
    @settings(max_examples=60, deadline=None)
    @given(random_lp())
    def test_matches_linprog_on_random_boxed_lps(self, problem):
        c, a_rows, b, ub = problem
        ours = solve_model(model_from_rows(c, a_rows, b, ub, integer=False))
        ref = linprog(
            c,
            A_ub=np.array(a_rows, dtype=float) if a_rows else None,
            b_ub=b if b else None,
            bounds=[(0.0, float(u)) for u in ub],
            method="highs",
        )
        if ref.status == 0:
            assert ours.status == SolveStatus.OPTIMAL
            assert ours.objective == pytest.approx(ref.fun, abs=1e-6)
        elif ref.status == 2:
            assert ours.status == SolveStatus.INFEASIBLE

    @settings(max_examples=40, deadline=None)
    @given(random_ilp())
    def test_same_optimum_as_milp(self, ilp):
        c, rows, rhs, ub = ilp
        n = len(c)
        ours = solve_model(model_from_rows(c, rows, rhs, ub, integer=True))
        ref = milp(
            c=np.array(c, dtype=float),
            constraints=LinearConstraint(
                np.array(rows, dtype=float), -np.inf * np.ones(len(rhs)), np.array(rhs, dtype=float)
            ),
            bounds=Bounds(np.zeros(n), np.array(ub, dtype=float)),
            integrality=np.ones(n),
        )
        assert ref.status == 0  # box-bounded, always feasible (x = 0 unless rhs < 0)
        assert ours.status == SolveStatus.OPTIMAL
        assert ours.objective == pytest.approx(ref.fun, abs=1e-6)
