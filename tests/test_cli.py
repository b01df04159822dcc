"""Tests for the command-line interface."""

from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.io import load_json, plan_from_dict


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code != 0

    def test_unknown_map_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["show", "--map", "no-such-map"])

    def test_solve_requires_units(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--map", "sorting-center-small"])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        output = capsys.readouterr().out
        assert output.startswith("repro ")
        assert output.strip().split(" ", 1)[1]  # a non-empty version string

    def test_version_flag_prints_package_version(self, capsys):
        with pytest.raises(SystemExit):
            main(["--version"])
        assert capsys.readouterr().out.strip() == f"repro {repro.__version__}"

    def test_pyproject_version_comes_from_the_package(self):
        # One version source: the distribution's metadata is read from
        # repro.__version__, so an installed `repro --version` cannot drift.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        if not pyproject.is_file():
            pytest.skip("pyproject.toml is not next to the tests")
        config = tomllib.loads(pyproject.read_text())
        assert "version" not in config["project"]
        assert "version" in config["project"]["dynamic"]
        assert config["tool"]["setuptools"]["dynamic"]["version"] == {
            "attr": "repro.__version__"
        }

    def test_unknown_router_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "--map", "sorting-center-small", "--units", "4",
                 "--routing", "teleport"]
            )

    def test_routing_window_without_grid_router_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["simulate", "--map", "sorting-center-small", "--units", "4",
                 "--routing-window", "8"]
            )
        assert "--routing-window" in str(excinfo.value)


class TestMapsCommand:
    def test_lists_presets_and_paper_stats(self, capsys):
        assert main(["maps"]) == 0
        output = capsys.readouterr().out
        assert "fulfillment-1" in output
        assert "sorting-center-small" in output
        assert "(paper)" in output


class TestShowCommand:
    def test_renders_traffic_system(self, capsys, tmp_path):
        map_file = tmp_path / "toy.map"
        assert main(["show", "--map", "sorting-center-small", "--save-map", str(map_file)]) == 0
        output = capsys.readouterr().out
        assert "!" in output  # component exits are marked
        assert map_file.exists()
        assert "type warehouse" in map_file.read_text()


class TestSolveCommand:
    def test_solves_and_saves_plan(self, capsys, tmp_path):
        plan_file = tmp_path / "plan.json"
        code = main(
            [
                "solve",
                "--map",
                "sorting-center-small",
                "--units",
                "8",
                "--horizon",
                "1200",
                "--save-plan",
                str(plan_file),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "workload serviced:  True" in output
        plan = plan_from_dict(load_json(plan_file))
        assert plan.num_agents > 0

    def test_infeasible_instance_returns_nonzero(self, capsys):
        code = main(
            ["solve", "--map", "sorting-center-small", "--units", "4000", "--horizon", "1200"]
        )
        assert code == 1
        assert "INFEASIBLE" in capsys.readouterr().out


class TestTable1Command:
    def test_small_scale_table(self, capsys):
        assert main(["table1"]) == 0
        output = capsys.readouterr().out
        assert "Table I" in output
        assert "fulfillment-1-small" in output
        assert "sorting-center-small" in output

    def test_markdown_output(self, capsys):
        assert main(["table1", "--markdown"]) == 0
        output = capsys.readouterr().out
        assert "| Map |" in output


class TestSweepCommand:
    def test_smoke_sweep_runs_reports_and_compares(self, capsys, tmp_path):
        out = tmp_path / "results.jsonl"
        code = main(
            ["sweep", "--preset", "smoke", "--workers", "2", "--out", str(out)]
        )
        output = capsys.readouterr().out
        assert code == 0  # an infeasible scenario is a result, not a failure
        assert out.exists()
        assert len(out.read_text().splitlines()) >= 8
        assert "infeasible" in output
        assert "pass rate" in output

        assert main(["sweep", "--report", str(out)]) == 0
        report = capsys.readouterr().out
        assert "Experiment sweep" in report
        assert "pass rate" in report

        assert main(["sweep", "--compare", str(out), str(out)]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_limit_and_markdown(self, capsys, tmp_path):
        code = main(["sweep", "--preset", "scaling", "--limit", "1", "--markdown"])
        assert code == 0
        output = capsys.readouterr().out
        assert "1 scenario(s)" in output
        assert "| Scenario |" in output

    def test_unknown_preset_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--preset", "no-such-suite"])

    def test_bad_workers_and_limit_rejected(self, capsys):
        with pytest.raises(SystemExit, match="--workers"):
            main(["sweep", "--workers", "0"])
        with pytest.raises(SystemExit, match="--limit"):
            main(["sweep", "--limit", "-1"])

    def test_conflicting_modes_rejected(self, capsys, tmp_path):
        path = str(tmp_path / "r.jsonl")
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(["sweep", "--report", path, "--compare", path, path])
        with pytest.raises(SystemExit, match="--out"):
            main(["sweep", "--report", path, "--out", path])
        with pytest.raises(SystemExit, match="--tolerance"):
            main(["sweep", "--compare", path, path, "--tolerance", "0"])


class TestValidateCommand:
    def test_validate_round_trip(self, capsys, tmp_path):
        plan_file = tmp_path / "plan.json"
        assert (
            main(
                [
                    "solve",
                    "--map",
                    "sorting-center-small",
                    "--units",
                    "6",
                    "--horizon",
                    "1200",
                    "--save-plan",
                    str(plan_file),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["validate", "--plan", str(plan_file)]) == 0
        output = capsys.readouterr().out
        assert "feasible" in output


class TestProfile:
    def test_profile_solve_prints_tables_and_saves_trace(self, capsys, tmp_path):
        trace_file = tmp_path / "trace.json"
        code = main(
            [
                "profile", "solve",
                "--map", "sorting-center-small",
                "--units", "6",
                "--horizon", "1200",
                "--top", "5",
                "--save-trace", str(trace_file),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Span tree" in output
        assert "solver.solve" in output
        assert "hotspots by self time" in output
        assert "cProfile" in output and "ncalls" in output
        document = load_json(trace_file)
        assert document["schema"] == "obs-trace"
        assert document["spans"][0]["name"] == "solver.solve"

    def test_profile_without_cprofile(self, capsys):
        assert main(
            [
                "profile", "solve",
                "--map", "sorting-center-small",
                "--units", "6",
                "--no-cprofile",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "cProfile" not in output

    def test_profile_sweep_prints_the_runs_spans(self, capsys):
        """An in-process sweep's spans reach the printed tree, not the record."""
        assert main(
            ["profile", "sweep", "--preset", "smoke", "--limit", "1", "--no-cprofile"]
        ) == 0
        output = capsys.readouterr().out
        assert "solver.synthesis" in output
        assert "(empty trace)" not in output

    def test_profile_validations(self):
        with pytest.raises(SystemExit):
            main(["profile", "solve", "--top", "0"])
        with pytest.raises(SystemExit):
            main(["profile", "sweep", "--limit", "-1"])
        with pytest.raises(SystemExit):
            main(["profile", "nonsense"])

    def test_profile_leaves_tracing_disabled(self):
        from repro.obs import tracing_enabled

        assert main(
            ["profile", "solve", "--map", "sorting-center-small", "--units", "6",
             "--no-cprofile"]
        ) == 0
        assert not tracing_enabled()
