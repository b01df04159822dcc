"""Each process imports only what it runs.

The ``repro serve`` front end, its HTTP clients and the CLI parser describe,
cache and ship scenarios; they never solve or route one, so they must not
load the solver, the contract algebra, the simulation runner, the MAPF
solvers, the analysis stack or networkx.  A pool worker, which does solve,
loads the pipeline while it warms up.  Every check runs in a fresh
interpreter with ``PYTHONPATH=src``: the test process itself has long since
imported everything.

This module imports only the standard library, so a spawned pool worker can
import it to run :func:`loaded` without loading anything else.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: What a process that only describes or serves scenarios must not load.
PIPELINE = (
    "scipy",
    "networkx",
    "repro.core",
    "repro.contracts",
    "repro.solver",
    "repro.sim.runner",
    "repro.sim.monitors",
    "repro.sim.routing",
    "repro.mapf",
    "repro.analysis",
)


def loaded(names):
    """The ``names`` this process has imported (run in pool workers too)."""
    return [name for name in names if name in sys.modules]


def _fresh(code: str):
    """Run ``code`` in a new interpreter; returns the JSON its last line prints."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    completed = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _pipeline_loaded_after(code: str):
    return _fresh(
        f"{code}\nimport json\nfrom test_import_hygiene import PIPELINE, loaded\n"
        "print(json.dumps(loaded(PIPELINE)))"
    )


def test_service_and_experiments_load_no_pipeline():
    assert _pipeline_loaded_after("import repro.service, repro.experiments") == []


def test_cli_parser_loads_no_pipeline():
    assert _pipeline_loaded_after("import repro.cli\nrepro.cli.build_parser()") == []


def test_version_loads_no_pipeline():
    code = (
        "from repro.cli import main\n"
        "try:\n"
        "    main(['--version'])\n"
        "except SystemExit as stop:\n"
        "    assert stop.code == 0, stop.code"
    )
    assert _pipeline_loaded_after(code) == []


def test_sim_exports_resolve_lazily():
    """``repro.sim`` lists the same names before and after its deferred
    exports resolve, each resolves to its defining module's object, and an
    unknown name is an ``AttributeError``."""
    report = _fresh(
        """
import json
import repro.sim as sim
before = dir(sim)
names = {name: getattr(sim, name) for name in sim.__all__}
from repro.sim import monitors, routing, runner
try:
    sim.no_such_name
    unknown = "resolved"
except AttributeError:
    unknown = "AttributeError"
print(json.dumps({
    "unlisted": [name for name in sim.__all__ if name not in before],
    "dir_stable": dir(sim) == before,
    "same_objects": names["SimulationConfig"] is runner.SimulationConfig
    and names["ContractMonitor"] is monitors.ContractMonitor
    and names["RoutingConfig"] is routing.RoutingConfig
    and names["ROUTERS"] is routing.ROUTERS,
    "unknown": unknown,
}))
"""
    )
    assert report == {
        "unlisted": [],
        "dir_stable": True,
        "same_objects": True,
        "unknown": "AttributeError",
    }


def test_warm_up_loads_the_pipeline_in_the_worker():
    """The warm-up ping loads the pipeline in the worker, not in the process
    that owns the pool."""
    report = _fresh(
        """
import json
from repro.service import ServicePool
from test_import_hygiene import loaded

names = ["scipy.optimize", "repro.core.pipeline", "repro.sim.runner"]
pool = ServicePool(workers=1)
try:
    pool.warm_up()
    worker = pool._executor.submit(loaded, names).result(timeout=60)
finally:
    pool.drain()
print(json.dumps({"worker": worker, "owner": loaded(names)}))
"""
    )
    assert report == {
        "worker": ["scipy.optimize", "repro.core.pipeline", "repro.sim.runner"],
        "owner": [],
    }
