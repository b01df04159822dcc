"""Unit tests for the linear expression layer."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.contracts import AGContract
from repro.solver.expressions import (
    EQ,
    GE,
    LE,
    ExpressionError,
    LinearConstraint,
    LinearExpr,
    Variable,
    add_terms,
    linear_row,
    variables_of,
)


@pytest.fixture()
def xy():
    return Variable("x", lb=0, ub=10), Variable("y", lb=0, ub=10)


class TestVariable:
    def test_defaults(self):
        v = Variable("v")
        assert v.lb == 0
        assert v.ub is None
        assert not v.integer

    def test_empty_domain_rejected(self):
        with pytest.raises(ExpressionError):
            Variable("v", lb=3, ub=2)

    def test_hashable_and_distinct(self):
        a = Variable("a", lb=0, ub=1)
        b = Variable("a", lb=0, ub=2)
        assert hash(a) != hash(b) or a != b
        assert len({a, b}) == 2

    def test_negation_builds_expr(self):
        v = Variable("v")
        expr = -v
        assert expr.coefficient(v) == -1.0


class TestLinearExpr:
    def test_addition_and_scaling(self, xy):
        x, y = xy
        expr = 2 * x + 3 * y + 4
        assert expr.coefficient(x) == 2.0
        assert expr.coefficient(y) == 3.0
        assert expr.constant == 4.0

    def test_subtraction_cancels(self, xy):
        x, y = xy
        expr = (x + y) - (x + y)
        assert expr.is_constant()
        assert expr.constant == 0.0

    def test_rsub(self, xy):
        x, _ = xy
        expr = 5 - x
        assert expr.coefficient(x) == -1.0
        assert expr.constant == 5.0

    def test_sum_builder(self, xy):
        x, y = xy
        expr = LinearExpr.sum([x, y, x, 2.5])
        assert expr.coefficient(x) == 2.0
        assert expr.coefficient(y) == 1.0
        assert expr.constant == 2.5

    def test_sum_of_empty_iterable(self):
        expr = LinearExpr.sum([])
        assert expr.is_constant()
        assert expr.constant == 0.0

    def test_evaluate(self, xy):
        x, y = xy
        expr = 2 * x - y + 1
        assert expr.evaluate({x: 3, y: 4}) == pytest.approx(3.0)

    def test_evaluate_missing_variable(self, xy):
        x, y = xy
        expr = x + y
        with pytest.raises(ExpressionError):
            expr.evaluate({x: 1})

    def test_zero_coefficients_dropped(self, xy):
        x, y = xy
        expr = 0 * x + y
        assert x not in expr.coeffs
        assert expr.coefficient(x) == 0.0

    def test_scale_by_expression_rejected(self, xy):
        x, y = xy
        with pytest.raises(ExpressionError):
            (x + 1) * (y + 1)  # type: ignore[operator]

    def test_invalid_operand(self):
        with pytest.raises(ExpressionError):
            LinearExpr.from_operand("not a number")  # type: ignore[arg-type]


class TestLinearConstraint:
    def test_le_normalization(self, xy):
        x, y = xy
        constraint = x + y <= 5
        assert constraint.sense == LE
        assert constraint.expr.constant == -5.0

    def test_ge_and_eq(self, xy):
        x, y = xy
        assert (x >= 2).sense == GE
        assert (x + y == 3).sense == EQ

    def test_satisfaction(self, xy):
        x, y = xy
        constraint = x + 2 * y <= 10
        assert constraint.is_satisfied({x: 2, y: 4})
        assert not constraint.is_satisfied({x: 5, y: 4})

    def test_violation_amount(self, xy):
        x, _ = xy
        constraint = x <= 3
        assert constraint.violation({x: 5}) == pytest.approx(2.0)
        assert constraint.violation({x: 1}) == 0.0

    def test_eq_violation(self, xy):
        x, _ = xy
        # Equality constraints on a single variable are written by lifting the
        # variable into an expression first (plain ``x == 4`` keeps Python's
        # value-equality semantics because variables are used as dict keys).
        constraint = 1 * x == 4
        assert constraint.violation({x: 2.5}) == pytest.approx(1.5)

    def test_plain_variable_equality_is_not_a_constraint(self, xy):
        x, y = xy
        assert (x == y) is False
        assert x == Variable("x", lb=0, ub=10)

    def test_named(self, xy):
        x, _ = xy
        constraint = (x <= 3).named("cap")
        assert constraint.name == "cap"
        assert constraint.sense == LE

    def test_invalid_sense_rejected(self, xy):
        x, _ = xy
        with pytest.raises(ExpressionError):
            LinearConstraint(LinearExpr({x: 1.0}), "<")

    def test_variables_of(self, xy):
        x, y = xy
        constraints = [x <= 1, y >= 0, x + y == 2]
        assert set(variables_of(constraints)) == {x, y}


class TestLinearRow:
    def test_equals_the_operator_chain(self, xy):
        x, y = xy
        coeffs = add_terms(add_terms({}, [x, y, x], 1.0), [y], -1.0)
        row = linear_row(coeffs, LE, 3, "r")
        chained = (LinearExpr.sum([x, y, x]) - y <= 3).named("r")
        assert (row.name, row.sense, row.expr.constant) == ("r", LE, -3.0)
        assert (chained.name, chained.sense, chained.expr.constant) == ("r", LE, -3.0)
        assert list(row.expr.coeffs.items()) == list(chained.expr.coeffs.items()) == [(x, 2.0)]


_UNPICKLE_AND_LOOK_UP = """
import pickle, sys
from repro.solver.expressions import Variable
data = pickle.loads(sys.stdin.buffer.read())
x = Variable("x", lb=0, ub=4, integer=True)
y = Variable("y", lb=0, ub=None)
assert data["keys"][x] == 1 and data["keys"][y] == 2
assert data["expr"].coeffs[x] == 2.0 and data["expr"].coeffs[y] == -1.0
contract = data["contract"]
assert set(contract.variables) == {x, y}
assert contract.assumptions[0].expr.coeffs[y] == 1.0
assert contract.satisfied_by({x: 1, y: 2})
print(hash("x"))
"""


def test_pickled_variables_are_found_under_another_hash_seed():
    """A Variable caches its hash; the cache must not travel through pickle.

    String hashes are salted per interpreter, so the objects are unpickled
    in interpreters with other ``PYTHONHASHSEED`` values and looked up by
    freshly built equal Variables.
    """
    x = Variable("x", lb=0, ub=4, integer=True)
    y = Variable("y", lb=0, ub=None)
    payload = pickle.dumps(
        {
            "keys": {x: 1, y: 2},
            "expr": 2 * x - y + 1,
            "contract": AGContract(
                "c", assumptions=((x + y <= 3).named("cap"),), guarantees=((1 * x >= 1),)
            ),
        }
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    child_hashes = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", _UNPICKLE_AND_LOOK_UP],
            input=payload,
            env=env,
            capture_output=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr.decode()
        child_hashes.add(int(done.stdout))
    # At least one child hashed strings differently from this interpreter.
    assert child_hashes - {hash("x")}
