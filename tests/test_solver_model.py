"""Unit tests for the constraint model."""

import pytest

from repro.solver import ConstraintModel, ModelError, Variable
from repro.solver.expressions import LinearExpr


class TestVariables:
    def test_add_var_registers(self):
        model = ConstraintModel()
        x = model.add_var("x", lb=0, ub=5, integer=True)
        assert x in model.variables
        assert model.variable_by_name("x") is x

    def test_duplicate_name_rejected(self):
        model = ConstraintModel()
        model.add_var("x")
        with pytest.raises(ModelError):
            model.add_var("x")

    def test_register_external_variable(self):
        model = ConstraintModel()
        v = Variable("ext", lb=1, ub=2)
        model.register(v)
        model.register(v)  # idempotent
        assert model.num_variables == 1

    def test_conflicting_external_names_rejected(self):
        model = ConstraintModel()
        model.register(Variable("v", lb=0, ub=1))
        with pytest.raises(ModelError):
            model.register(Variable("v", lb=0, ub=2))

    def test_unknown_name_lookup(self):
        model = ConstraintModel()
        with pytest.raises(ModelError):
            model.variable_by_name("nope")


class TestConstraintsAndObjective:
    def test_constraint_auto_registers_variables(self):
        model = ConstraintModel()
        x = Variable("x", lb=0, ub=4)
        y = Variable("y", lb=0, ub=4)
        model.add_constraint(x + y <= 6, name="cap")
        assert model.num_variables == 2
        assert model.constraints[0].name == "cap"

    def test_bool_guard(self):
        model = ConstraintModel()
        with pytest.raises(ModelError):
            model.add_constraint(True)  # type: ignore[arg-type]

    def test_objective_sense_validation(self):
        model = ConstraintModel()
        x = model.add_var("x")
        with pytest.raises(ModelError):
            model.set_objective(LinearExpr({x: 1.0}), sense="maximize-ish")

    def test_objective_value(self):
        model = ConstraintModel()
        x = model.add_var("x")
        y = model.add_var("y")
        model.set_objective(2 * x + y + 3)
        assert model.objective_value({x: 1, y: 2}) == pytest.approx(7.0)


class TestExportAndChecks:
    def _small_model(self):
        model = ConstraintModel("small")
        x = model.add_var("x", lb=0, ub=10, integer=True)
        y = model.add_var("y", lb=0, ub=10)
        model.add_constraint(x + 2 * y <= 14)
        model.add_constraint(3 * x - y >= 0)
        model.add_constraint(x - y == 2)
        model.set_objective(x + y, sense="max")
        return model, x, y

    def test_check_assignment_reports_violations(self):
        model, x, y = self._small_model()
        violated = model.check_assignment({x: 20, y: 1.5})
        names = {c.name for c in violated}
        assert any(name.startswith("ub[") for name in names)
        assert len(violated) >= 2

    def test_check_assignment_integer_violation(self):
        model, x, y = self._small_model()
        violated = model.check_assignment({x: 2.5, y: 0.5})
        assert any(c.name.startswith("int[") for c in violated)

    def test_check_assignment_missing_variable(self):
        model, x, _ = self._small_model()
        with pytest.raises(Exception):
            model.check_assignment({x: 1})

    def test_relaxed_drops_integrality(self):
        model, _, _ = self._small_model()
        relaxed = model.relaxed()
        assert all(not v.integer for v in relaxed.variables)
        assert relaxed.num_constraints == model.num_constraints
        assert relaxed.objective_sense == model.objective_sense

    def test_summary_mentions_counts(self):
        model, _, _ = self._small_model()
        text = model.summary()
        assert "2 vars" in text
        assert "3 constraints" in text
