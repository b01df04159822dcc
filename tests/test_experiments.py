"""Tests for scenario specs, generators and the result store."""

import json
from dataclasses import replace

import pytest

from repro.experiments import (
    OUTPUT_EPOCH,
    PRESET_SUITES,
    STATUS_ERROR,
    ResultStore,
    RunRecord,
    ScenarioError,
    ScenarioSpec,
    execute_scenario,
    grid_scenarios,
    load_records,
    preset_scenarios,
    random_scenarios,
    smoke_suite,
)
from repro.io import (
    SerializationError,
    run_record_from_dict,
    run_record_to_dict,
    scenario_from_dict,
    scenario_to_dict,
)


class TestScenarioSpec:
    def test_round_trip(self):
        spec = ScenarioSpec(kind="sorting", units=40, workload_mix="zipf", seed=3, name="x")
        document = json.loads(json.dumps(scenario_to_dict(spec)))
        assert scenario_from_dict(document) == spec

    def test_scenario_id_ignores_name(self):
        spec = ScenarioSpec(units=10)
        assert spec.scenario_id == replace(spec, name="renamed").scenario_id

    def test_scenario_id_tracks_fields(self):
        spec = ScenarioSpec(units=10)
        assert spec.scenario_id != replace(spec, units=11).scenario_id
        assert spec.scenario_id != replace(spec, seed=1).scenario_id
        assert spec.scenario_id != replace(spec, kind="sorting").scenario_id

    def test_with_updates_is_frozen_safe(self):
        spec = ScenarioSpec(units=10)
        updated = spec.with_updates(units=20, seed=5)
        assert (updated.units, updated.seed) == (20, 5)
        assert (spec.units, spec.seed) == (10, 0)  # the original is untouched
        assert updated is not spec

    def test_with_updates_rejects_unknown_fields(self):
        with pytest.raises(ScenarioError, match="no_such_knob"):
            ScenarioSpec().with_updates(no_such_knob=1)

    def test_with_updates_id_changes_iff_hashed_field_changes(self):
        spec = ScenarioSpec(units=10)
        # name is excluded from the hash: the id must survive a rename.
        assert spec.with_updates(name="renamed").scenario_id == spec.scenario_id
        # every hashed field must move the id.
        for overrides in (
            {"units": 11},
            {"seed": 9},
            {"shelf_columns": spec.shelf_columns + 1},
            {"product_order": tuple(range(1, spec.num_products + 1))},
        ):
            assert spec.with_updates(**overrides).scenario_id != spec.scenario_id
        # a no-op update keeps the id (and equality).
        assert spec.with_updates(units=10).scenario_id == spec.scenario_id

    def test_empty_product_order_keeps_historical_id(self):
        # () is dropped from the hash payload: pre-slotting scenarios keep
        # their archived ids, while an *explicit* identity permutation is a
        # different design identity (it pins the order).
        spec = ScenarioSpec(units=10)
        assert spec.with_updates(product_order=()).scenario_id == spec.scenario_id
        identity = tuple(range(1, spec.num_products + 1))
        assert spec.with_updates(product_order=identity).scenario_id != spec.scenario_id

    def test_product_order_normalized_to_tuple(self):
        spec = ScenarioSpec(product_order=[2, 1, 3, 4, 5, 6])
        assert spec.product_order == (2, 1, 3, 4, 5, 6)
        assert spec == ScenarioSpec(product_order=(2, 1, 3, 4, 5, 6))

    def test_product_order_rejected_for_sorting(self):
        with pytest.raises(ScenarioError, match="fulfillment"):
            ScenarioSpec(kind="sorting", product_order=(1, 2)).validate()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"kind": "bogus"},
            {"workload_mix": "bogus"},
            {"units": -1},
            {"horizon": 0},
            {"arrival_rate": 0.0},
            {"service_time": "uniform:nope"},
            {"shelf_bands": 2},  # serpentine needs an odd band count
        ],
    )
    def test_validate_rejects(self, overrides):
        with pytest.raises(ScenarioError):
            replace(ScenarioSpec(), **overrides).validate()

    def test_scenario_ids_are_pinned(self):
        # Archived result files are keyed on these ids; ``backend`` stays in
        # the hashed payload so that they do not move.
        assert ScenarioSpec().scenario_id == "cdba07b15261"
        assert preset_scenarios("smoke")[0].scenario_id == "8a65fb6b025c"

    def test_retired_backend_rejected(self):
        spec = ScenarioSpec(backend="bnb")
        with pytest.raises(ScenarioError, match="highs"):
            spec.validate()
        assert not spec.is_valid()
        document = execute_scenario(spec.to_dict())
        assert document["status"] == STATUS_ERROR
        assert "highs" in document["message"]

    def test_build_fulfillment(self):
        spec = ScenarioSpec(num_products=5, units=10)
        designed, workload = spec.build()
        assert designed.warehouse.num_products == 5
        assert workload.total_units == 10

    def test_build_sorting_derives_products_from_chutes(self):
        spec = ScenarioSpec(kind="sorting", num_slices=2, shelf_columns=5, shelf_bands=1)
        designed, workload = spec.build()
        assert designed.warehouse.num_products == spec.layout().num_shelves
        assert workload.num_products == designed.warehouse.num_products

    def test_zipf_workload_is_seeded(self):
        spec = ScenarioSpec(workload_mix="zipf", units=30, seed=4)
        _, first = spec.build()
        _, again = spec.build()
        _, other = replace(spec, seed=5).build()
        assert first == again
        assert first.total_units == other.total_units == 30
        assert first != other

    def test_malformed_document_rejected(self):
        with pytest.raises(SerializationError):
            scenario_from_dict({"schema": "plan", "version": 1})
        with pytest.raises(SerializationError):
            scenario_from_dict({"schema": "scenario", "version": 1, "not_a_field": 1})


class TestGenerators:
    def test_grid_cartesian_product(self):
        specs = grid_scenarios(ScenarioSpec(), {"num_slices": (2, 3), "units": (5, 10, 15)})
        assert len(specs) == 6
        assert len({spec.scenario_id for spec in specs}) == 6

    def test_grid_skips_invalid_combinations(self):
        specs = grid_scenarios(ScenarioSpec(), {"shelf_bands": (2, 3)})
        assert [spec.shelf_bands for spec in specs] == [3]
        with pytest.raises(ScenarioError):
            grid_scenarios(ScenarioSpec(), {"shelf_bands": (2, 3)}, strict=True)

    def test_grid_rejects_unknown_axis(self):
        with pytest.raises(ScenarioError):
            grid_scenarios(ScenarioSpec(), {"warp_speed": (1,)})
        with pytest.raises(ScenarioError):
            grid_scenarios(ScenarioSpec(), {"units": ()})

    def test_random_is_deterministic_and_distinct(self):
        ranges = {"units": tuple(range(5, 50)), "seed": tuple(range(10))}
        first = random_scenarios(ScenarioSpec(), 6, ranges, seed=1)
        again = random_scenarios(ScenarioSpec(), 6, ranges, seed=1)
        other = random_scenarios(ScenarioSpec(), 6, ranges, seed=2)
        assert first == again
        assert first != other
        assert len({spec.scenario_id for spec in first}) == 6

    def test_random_raises_when_space_exhausted(self):
        with pytest.raises(ScenarioError):
            random_scenarios(ScenarioSpec(), 3, {"units": (7,)}, seed=0)

    def test_presets(self):
        for name in PRESET_SUITES:
            specs = preset_scenarios(name)
            assert specs, name
            assert len({spec.scenario_id for spec in specs}) == len(specs)
        with pytest.raises(ScenarioError):
            preset_scenarios("no-such-suite")

    def test_smoke_suite_shape(self):
        specs = smoke_suite()
        assert len(specs) >= 8
        kinds = {spec.kind for spec in specs}
        assert kinds == {"fulfillment", "sorting"}
        assert any(spec.workload_mix == "zipf" for spec in specs)
        infeasible = [spec for spec in specs if spec.name == "smoke/infeasible-stock"]
        assert len(infeasible) == 1


def _record(**overrides) -> RunRecord:
    defaults = dict(
        spec=ScenarioSpec(units=overrides.pop("units", 10)),
        status="ok",
        timings={"synthesis": 0.5, "realization": 0.2},
        num_agents=4,
        units_delivered=12,
        plan_feasible=True,
        workload_serviced=True,
        sim={"throughput_ratio": 1.0, "contracts_ok": 1.0, "contract_violations": 0.0},
    )
    defaults.update(overrides)
    return RunRecord(**defaults)


class TestRunRecord:
    def test_round_trip(self):
        record = _record()
        document = json.loads(json.dumps(run_record_to_dict(record)))
        assert run_record_from_dict(document) == record

    def test_rejects_unknown_status(self):
        with pytest.raises(ValueError):
            _record(status="exploded")

    def test_fingerprint_excludes_timings(self):
        record = _record()
        slower = _record(timings={"synthesis": 99.0})
        assert record.fingerprint() == slower.fingerprint()
        assert record.fingerprint() != _record(num_agents=5).fingerprint()

    def test_records_carry_the_output_epoch(self):
        document = run_record_to_dict(_record())
        assert document["epoch"] == OUTPUT_EPOCH == _record().epoch
        # A line written before output epochs existed is from epoch 0.
        del document["epoch"]
        assert run_record_from_dict(document).epoch == 0
        assert _record(epoch=0).fingerprint() != _record().fingerprint()

    def test_stale_scenario_id_is_recomputed_not_fatal(self):
        # Old result files whose stored id predates a ScenarioSpec schema
        # change must stay loadable; the embedded spec's hash is canonical.
        document = run_record_to_dict(_record())
        document["scenario_id"] = "0" * 12
        record = run_record_from_dict(document)
        assert record.scenario_id == _record().scenario_id

    def test_derived_properties(self):
        record = _record()
        assert record.ok and not record.failed
        assert record.synthesis_seconds == pytest.approx(0.5)
        assert record.total_seconds == pytest.approx(0.7)
        assert record.contracts_ok is True
        assert record.throughput_ratio == pytest.approx(1.0)
        failure = _record(status="error", message="boom", sim={})
        assert failure.failed
        assert failure.contracts_ok is None
        assert failure.throughput_ratio is None
        assert "boom" in failure.summary()


class TestResultStore:
    def test_append_and_reload(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        store.append(_record(units=10))
        store.append(_record(units=20))
        store.append(_record(units=10, status="infeasible", message="again"))
        assert len(store) == 3
        assert path.read_text().count("\n") == 3

        reloaded = ResultStore(path)
        assert len(reloaded) == 3
        assert [r.spec.units for r in reloaded] == [10, 20, 10]
        first_id = _record(units=10).scenario_id
        assert [r.status for r in reloaded.by_id(first_id)] == ["ok", "infeasible"]
        assert len(reloaded.scenario_ids()) == 2

    def test_creates_missing_parent_directories(self, tmp_path):
        path = tmp_path / "results" / "nested" / "sweep.jsonl"
        store = ResultStore(path)
        store.append(_record())
        assert len(load_records(path)) == 1

    def test_append_mode_tolerates_foreign_lines(self, tmp_path):
        # The runner appends to whatever file it is given; unreadable
        # pre-existing lines must not block the sweep.
        path = tmp_path / "results.jsonl"
        path.write_text("truncated junk\n")
        store = ResultStore(path, load_existing=False)
        store.append(_record())
        assert len(store) == 1
        assert len(path.read_text().splitlines()) == 2

    def test_load_records_skips_blank_lines(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text(json.dumps(run_record_to_dict(_record())) + "\n\n")
        assert len(load_records(path)) == 1

    def test_load_records_reports_bad_line(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="results.jsonl:1"):
            load_records(path)
