"""The four benchmark workloads, each closed loop and generated from a seed.

A workload has a ``setup`` (timed as ``setup_s``), a ``measure`` pass that
runs units of work until the window closes (the untraced run) and a ``trace``
pass over a fixed amount of work (the traced run).  Both fill a
:class:`Tally` with per-unit latencies and checked outcomes.

Every unit of work (a sweep scenario, a twin ``simulate`` call, a Table-I
plan, a cold request) and every block of ``SERVE_WARM_BLOCK`` warm requests
is a *round*, timed in *reference seconds*: wall seconds scaled by how fast
the host ran a fixed calibration loop during the round (:class:`HostSampler`),
which takes out the swings of a shared host's speed.  The end-to-end timings are means over all rounds of a run, so each averages
the scenario mix of many laps instead of picking one scenario kind the way a
median over differently-sized scenarios does.
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from layers import ROOT as UNATTRIBUTED
from layers import LayerTracer

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
OUT = REPO / ".perfbench"

#: Suite seed of the untimed warm-up lap (sweep-small, serve-cold-warm),
#: offset from the run seed so that no nearby run measures it.
WARM_UP_OFFSET = 100_000
#: Laps of sweep-small that feed the digest and ``agents`` (always completed).
SWEEP_DIGEST_LAPS = 6
#: Smoke-suite laps sent as distinct cold requests by serve-cold-warm.
SERVE_COLD_LAPS = 16
#: Warm requests per round of serve-cold-warm's warm phase.
SERVE_WARM_BLOCK = 250
#: Warm requests of the traced serve-cold-warm run (half untraced, half traced).
SERVE_TRACE_WARM = 3000
TABLE1_MIN_PLANS = 3
TABLE1 = ("fulfillment-1", 550, 3600)
STORM = "breakdown:0.02:12,slowdown:0.02:10,outage:0.01:20,block:0.02:8,surge:0.05:2"
PLAN_STAGES = ("synthesis", "decomposition", "realization", "validation")
#: Typical thread CPU seconds of one probe kernel on the reference host
#: (Intel Xeon, Python 3.11).
REFERENCE_PROBE_S = 0.002
#: Seconds between two samples of :class:`HostSampler`.
SAMPLE_INTERVAL_S = 0.2
#: A round is scaled by the samples of its own span, but at least this long.
SAMPLE_WINDOW_S = 1.0


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

def _probe_kernel() -> float:
    """Thread CPU seconds of a fixed interpreter-bound loop.

    A shared host's speed swings by up to 2x over tens of seconds, and the
    program slows with it.  Thread CPU time counts neither the process's other
    threads nor time spent descheduled, so only the host's speed moves it.
    """
    start = time.thread_time()
    table: Dict[int, int] = {}
    total = 0
    for i in range(20_000):
        total += i * i % 7
        table[i & 255] = total
    return time.thread_time() - start


def probe_host() -> float:
    """The probe kernel's median time over three back-to-back runs."""
    return statistics.median(_probe_kernel() for _ in range(3))


def host_scale(*probes: float) -> float:
    """Factor from wall seconds to reference seconds, given host probes."""
    return REFERENCE_PROBE_S / statistics.median(probes)


class HostSampler:
    """Runs the probe kernel every ``SAMPLE_INTERVAL_S`` on a background thread.

    Sampling during the work, rather than probing at its two ends, follows
    the host through a long HiGHS solve (which releases the interpreter lock):
    over six Table-I plans the scaled times varied by 2.7%, against 9.7% with
    probes at each end and 5.2% unscaled.  A sample costs about 1% of the
    window.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = [(time.perf_counter(), _probe_kernel())]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="host-sampler", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            seconds = _probe_kernel()
            self.samples.append((time.perf_counter(), seconds))

    def __enter__(self) -> "HostSampler":
        self._thread.start()
        return self

    def __exit__(self, *_exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, span: float) -> float:
        """Scale of a round that just ended after ``span`` seconds."""
        since = time.perf_counter() - max(span, SAMPLE_WINDOW_S)
        recent = []
        for at, seconds in reversed(self.samples):
            if at < since and recent:
                break
            recent.append(seconds)
        return host_scale(*recent)


# ---------------------------------------------------------------------------
# outcomes
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    """Per-unit samples, sums over rounds and checked outcomes of one pass."""

    latencies: List[float] = field(default_factory=list)
    plan_seconds: List[float] = field(default_factory=list)
    synthesis_seconds: List[float] = field(default_factory=list)
    nominal_ratios: List[float] = field(default_factory=list)
    rows: List[Dict] = field(default_factory=list)
    agents: int = 0
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: Sums over the closed rounds, in reference seconds: unit latencies, plan
    #: and synthesis times, and the wall time of the rounds that give a rate.
    latency_sum: float = 0.0
    latency_count: int = 0
    plan_sum: float = 0.0
    synthesis_sum: float = 0.0
    plan_count: int = 0
    rate_units: int = 0
    rate_seconds: float = 0.0
    #: Per round, the factor from wall seconds to reference seconds.
    round_scale: List[float] = field(default_factory=list)
    extra: Dict = field(default_factory=dict)
    #: Host samples that scale the rounds (none: wall seconds, as when traced).
    sampler: Optional[HostSampler] = None
    #: Lengths of ``latencies`` and ``plan_seconds`` when the last round closed.
    _marks: Tuple[int, int] = (0, 0)

    def end_round(
        self, wall: Optional[float] = None, count: Optional[int] = None,
        scale: Optional[float] = None,
    ) -> None:
        """Close a round over the samples added since the last one.

        ``scale`` converts its timings to reference seconds; by default it
        comes from the host samples taken during the round.  ``wall`` is the
        round's wall time and ``count`` its units (default: its latencies);
        without ``wall`` the round gives no rate.
        """
        latencies = self.latencies[self._marks[0]:]
        plans = self.plan_seconds[self._marks[1]:]
        synthesis = self.synthesis_seconds[self._marks[1]:]
        self._marks = (len(self.latencies), len(self.plan_seconds))
        if scale is None:
            scale = self.sampler.scale(wall or sum(latencies)) if self.sampler else 1.0
        self.round_scale.append(scale)
        self.latency_sum += sum(latencies) * scale
        self.latency_count += len(latencies)
        self.plan_sum += sum(plans) * scale
        self.synthesis_sum += sum(synthesis) * scale
        self.plan_count += len(plans)
        if wall:
            self.rate_units += len(latencies) if count is None else count
            self.rate_seconds += wall * scale

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(message)

    def check(self, row: Dict, expected: str, nominal: bool, keep: bool) -> None:
        """Count one attempted unit; it fails on any output check below."""
        self.attempted += 1
        problems = []
        if row["status"] != expected:
            problems.append(f"status {row['status']} (expected {expected})")
        if row["status"] == "ok":
            if not row["feasible"]:
                problems.append("plan infeasible to PlanValidator")
            if not row["serviced"]:
                problems.append("workload not serviced")
            if nominal and row["contracts_ok"] is False:
                problems.append("contract violations in a nominal simulation")
            if nominal and row["ratio"] is not None:
                self.nominal_ratios.append(row["ratio"])
        if problems:
            self.fail(f"{row['id']}: {'; '.join(problems)}")
        if keep:
            self.rows.append(row)


def record_row(document: Dict) -> Dict:
    """The digest row of a run-record document (sweep-small, serve-cold-warm)."""
    sim = document.get("sim") or {}
    return {
        "id": document["scenario_id"],
        "status": document["status"],
        "agents": document["num_agents"],
        "delivered": document["units_delivered"],
        "feasible": document["plan_feasible"],
        "serviced": document["workload_serviced"],
        "contracts_ok": bool(sim["contracts_ok"]) if "contracts_ok" in sim else None,
        "ratio": sim.get("throughput_ratio"),
    }


def solution_row(label: str, solution, report) -> Dict:
    """The digest row of a solved plan and its simulation."""
    return {
        "id": label,
        "status": "ok" if solution.succeeded else "infeasible",
        "agents": solution.num_agents,
        "delivered": solution.plan.total_delivered() if solution.succeeded else 0,
        "feasible": solution.plan_is_feasible,
        "serviced": solution.services_workload,
        "contracts_ok": report.contracts_ok if report is not None else None,
        "ratio": report.throughput_ratio if report is not None else None,
    }


def plan_timings(tally: Tally, timings: Dict[str, float]) -> None:
    tally.plan_seconds.append(sum(timings.get(stage, 0.0) for stage in PLAN_STAGES))
    tally.synthesis_seconds.append(timings.get("synthesis", 0.0))


def expected_status(spec) -> str:
    return "infeasible" if spec.name.endswith("infeasible-stock") else "ok"


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        """Everything before the first timed unit (imports happen here)."""

    def setup_plans(self) -> List[Dict]:
        """Stage timings of the plans solved in set-up, in reference seconds."""
        return []

    def measure(self, seconds: float, tally: Tally) -> Tally:
        """Fill ``tally`` with units of work until ``seconds`` have passed."""
        raise NotImplementedError

    def execute(self, tally: Tally, unit, keep: bool, span=nullcontext) -> None:
        """One unit of work; ``span()`` encloses exactly the program's call."""
        raise NotImplementedError

    def trace_units(self) -> Sequence:
        """The fixed work of the traced pass."""
        raise NotImplementedError

    def finish(self, tally: Tally) -> Tally:
        return tally

    def trace(self, tracer: LayerTracer) -> Tuple[Tally, float, float]:
        """Run each trace unit plain and wrapped, alternating which goes first.

        Returns (tally of the wrapped runs, plain seconds, wrapped seconds).
        """
        tally, plain = Tally(), Tally()
        seconds = [0.0, 0.0]
        for index, unit in enumerate(self.trace_units()):
            for traced in ((False, True) if index % 2 == 0 else (True, False)):
                start = time.perf_counter()
                if traced:
                    with tracer.installed():
                        self.execute(tally, unit, keep=True, span=tracer.root)
                else:
                    self.execute(plain, unit, keep=False)
                seconds[traced] += time.perf_counter() - start
        return self.finish(tally), seconds[0], seconds[1]

    def close(self) -> None:
        """Stop whatever ``setup`` started."""


class SweepSmall(Workload):
    """The smoke suite through ``execute_scenario``, lap after lap."""

    name = "sweep-small"

    def setup(self) -> None:
        from repro.experiments import generator, runner

        self.runner = runner
        self.smoke_suite = generator.smoke_suite

    def lap(self, index: int) -> List[Tuple[Dict, str]]:
        return [
            (spec.to_dict(), expected_status(spec))
            for spec in self.smoke_suite(self.seed + index)
        ]

    def execute(self, tally: Tally, unit, keep: bool, span=nullcontext) -> None:
        document, expected = unit
        start = time.perf_counter()
        with span():
            record = self.runner.execute_scenario(document)
        latency = time.perf_counter() - start
        tally.latencies.append(latency)
        row = record_row(record)
        tally.check(row, expected, nominal=True, keep=keep)
        if row["status"] == "ok":
            plan_timings(tally, record["timings"])
            if keep:
                tally.agents += row["agents"]
        tally.end_round(latency)

    def measure(self, seconds: float, tally: Tally) -> Tally:
        for unit in self.lap(WARM_UP_OFFSET):  # warm-up lap, outside the window
            self.runner.execute_scenario(unit[0])
        start = time.perf_counter()
        laps = 0
        while laps < SWEEP_DIGEST_LAPS or time.perf_counter() - start < seconds:
            for unit in self.lap(laps):
                self.execute(tally, unit, keep=laps < SWEEP_DIGEST_LAPS)
            laps += 1
        tally.extra["laps"] = laps
        return tally

    def trace_units(self) -> Sequence:
        return [unit for lap in range(SWEEP_DIGEST_LAPS) for unit in self.lap(lap)]


class Table1(Workload):
    """The paper's Fulfillment-1 / 550-unit Table-I row, plan and replay."""

    name = "table1-f1-550"

    def setup(self) -> None:
        from repro.analysis.reporting import paper_runtime
        from repro.core import WSPSolver
        from repro.maps import MAP_REGISTRY
        from repro.sim.runner import SimulationConfig
        from repro.warehouse import Workload as Demand

        map_name, units, self.horizon = TABLE1
        built = MAP_REGISTRY[map_name]()
        designed = getattr(built, "designed", built)
        self.paper_s = paper_runtime(map_name, designed.warehouse.num_products, units)
        self.solver = WSPSolver(designed.traffic_system)
        self.demand = Demand.uniform(designed.warehouse.catalog, units)
        self.replay = SimulationConfig(seed=self.seed, record_events=False)

    def execute(self, tally: Tally, unit, keep: bool, span=nullcontext) -> None:
        start = time.perf_counter()
        with span():
            solution = self.solver.solve(self.demand, horizon=self.horizon)
            planned = time.perf_counter()
            report = solution.simulate(self.replay) if solution.succeeded else None
        latency = time.perf_counter() - start
        tally.latencies.append(latency)
        tally.plan_seconds.append(planned - start)
        tally.synthesis_seconds.append(solution.synthesis_seconds)
        tally.end_round(latency)
        row = solution_row("fulfillment-1/550", solution, report)
        tally.check(row, "ok", nominal=True, keep=keep)
        if keep:
            tally.agents = solution.num_agents
            tally.extra["table1"] = {
                "instance": "fulfillment-1/550",
                "paper_s": self.paper_s,
                "num_variables": solution.synthesis.num_variables,
                "num_constraints": solution.synthesis.num_constraints,
                "agents": solution.num_agents,
            }

    def measure(self, seconds: float, tally: Tally) -> Tally:
        start = time.perf_counter()
        while len(tally.latencies) < TABLE1_MIN_PLANS or time.perf_counter() - start < seconds:
            self.execute(tally, None, keep=not tally.latencies)
        return tally

    def trace_units(self) -> Sequence:
        return [None]


class TwinWhatIf(Workload):
    """Three plans solved in set-up, replayed over six twin configurations."""

    name = "twin-what-if"

    def setup(self) -> None:
        from repro.core import WSPSolver
        from repro.experiments.generator import routing_scale_suite
        from repro.experiments.scenario import parse_service_time
        from repro.sim.disruptions import parse_disruptions
        from repro.sim.routing import RoutingConfig
        from repro.sim.runner import SimulationConfig

        # The plans are the suite's fixed layouts: on some other layout seeds
        # paced routing stalls on the 2-slice map.  The run seed drives the
        # simulations (arrivals, service times, disruptions).
        self.plans = []
        self.plan_scales = []
        probe = probe_host()
        for spec in routing_scale_suite(0)[:3]:
            designed, demand = spec.build()
            solution = WSPSolver(designed.traffic_system).solve(demand, horizon=spec.horizon)
            self.plans.append((f"{spec.scenario_id}/s{spec.num_slices}", solution))
            before, probe = probe, probe_host()
            self.plan_scales.append(host_scale(before, probe))

        def config(**knobs):
            return SimulationConfig(seed=self.seed, record_events=False, **knobs)

        self.configs = [
            ("abstract", config()),
            ("poisson", config(arrival_rate=0.05, service_time=parse_service_time("uniform:2,6"))),
            ("storm", config(disruptions=parse_disruptions(STORM))),
            ("prioritized", config(routing=RoutingConfig(router="prioritized"))),
            ("ecbs", config(routing=RoutingConfig(router="ecbs"))),
            ("lifelong", config(routing=RoutingConfig(router="lifelong", window=8))),
        ]
        self.units = [(plan, item) for plan in self.plans for item in self.configs]

    def setup_plans(self) -> List[Dict]:
        return [
            {stage: seconds * scale for stage, seconds in solution.timings.items()}
            for (_, solution), scale in zip(self.plans, self.plan_scales)
        ]

    def execute(self, tally: Tally, unit, keep: bool, span=nullcontext) -> None:
        (label, solution), (config_name, config) = unit
        start = time.perf_counter()
        with span():
            report = solution.simulate(config)
        latency = time.perf_counter() - start
        tally.latencies.append(latency)
        tally.end_round(latency)
        row = solution_row(f"{label}/{config_name}", solution, report)
        tally.check(row, "ok", nominal=config_name != "storm", keep=keep)

    def finish(self, tally: Tally) -> Tally:
        tally.agents = sum(solution.num_agents for _, solution in self.plans)
        return tally

    def measure(self, seconds: float, tally: Tally) -> Tally:
        start = time.perf_counter()
        passes = 0
        while passes < 1 or time.perf_counter() - start < seconds:
            for unit in self.units:
                self.execute(tally, unit, keep=passes == 0)
            passes += 1
        tally.extra["passes"] = passes
        return self.finish(tally)

    def trace_units(self) -> Sequence:
        return self.units


def _die_with_parent() -> None:  # pragma: no cover - runs in the child
    """Ask the kernel to SIGTERM the server if the benchmark dies first."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


class ServeColdWarm(Workload):
    """A ``repro serve`` process driven by one client over one keep-alive connection."""

    name = "serve-cold-warm"

    def setup(self) -> None:
        from repro.experiments.generator import smoke_suite
        from repro.service import ServiceClient, ServiceClientError, ServiceRequest

        self.client_error = ServiceClientError
        self.requests = [
            (ServiceRequest(scenario=spec), expected_status(spec))
            for seed in range(self.seed, self.seed + SERVE_COLD_LAPS)
            for spec in smoke_suite(seed)
        ]
        self.warm_up_lap = [
            ServiceRequest(scenario=spec) for spec in smoke_suite(self.seed + WARM_UP_OFFSET)
        ]
        self.server: Optional[subprocess.Popen] = None
        self.client = None
        self.url = self.boot()
        self.client = ServiceClient(self.url, timeout=120)

    def boot(self) -> str:
        OUT.mkdir(exist_ok=True)
        self.log_path = OUT / f"serve-{os.getpid()}.log"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with open(self.log_path, "w") as log:
            self.server = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "1"],
                stdout=log,
                stderr=subprocess.STDOUT,
                cwd=REPO,
                env=env,
                preexec_fn=_die_with_parent,
            )
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            for line in self.log_path.read_text().splitlines():
                if line.startswith("repro service listening on "):
                    return line.rsplit(" ", 1)[-1]
            if self.server.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(f"repro serve did not come up:\n{self.log_path.read_text()}")

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is None:
            return
        self.server.send_signal(signal.SIGTERM)
        try:
            self.server.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server = None
        self.log_path.unlink(missing_ok=True)

    def call(self, request) -> Tuple[float, object]:
        """One request; (latency, response or an error message)."""
        start = time.perf_counter()
        try:
            status, response = self.client.solve(request)
        except self.client_error as error:
            return time.perf_counter() - start, f"transport: {error}"
        latency = time.perf_counter() - start
        if status != 200:
            return latency, f"HTTP {status}: {response.message}"
        return latency, response

    def warm_up(self) -> None:
        """An untimed lap of other scenarios, so the pool worker is warm."""
        for request in self.warm_up_lap:
            self.call(request)

    def cold(self, tally: Tally) -> Tuple[List[Tuple], float]:
        """Every distinct scenario once, a request per round; (samples, wall)."""
        samples = []
        start = time.perf_counter()
        for request, expected in self.requests:
            latency, response = self.call(request)
            samples.append((latency, response))
            tally.latencies.append(latency)
            self.cold_outcome(tally, request, expected, response)
            tally.end_round()
        return samples, time.perf_counter() - start

    def cold_outcome(self, tally: Tally, request, expected: str, response) -> None:
        label = request.scenario.scenario_id
        if isinstance(response, str):
            tally.attempted += 1
            tally.fail(f"cold request {label}: {response}")
            return
        record = response.record
        if record is None:
            tally.attempted += 1
            tally.fail(f"cold request {label}: {response.state} without a run record")
            return
        row = record_row(record)
        tally.check(row, expected, nominal=True, keep=True)
        if row["status"] == "ok":
            tally.agents += row["agents"]
            plan_timings(tally, record["timings"])

    def warm(self, tally: Tally, until: Optional[float], count: int = 0) -> Tuple[List, float]:
        """Repeat the cold scenarios until ``until`` or for ``count`` requests.

        Each block of ``SERVE_WARM_BLOCK`` requests is a rate round.
        """
        samples = []
        block_start = start = time.perf_counter()
        while (time.perf_counter() < until) if until is not None else (len(samples) < count):
            request, expected = self.requests[len(samples) % len(self.requests)]
            latency, response = self.call(request)
            samples.append((latency, response))
            tally.attempted += 1
            if isinstance(response, str):
                tally.fail(f"warm request {request.scenario.scenario_id}: {response}")
            elif response.cache != "hit" or response.state != expected:
                tally.fail(f"warm request {request.scenario.scenario_id}: "
                           f"{response.state}/{response.cache}")
            if len(samples) % SERVE_WARM_BLOCK == 0:
                tally.end_round(time.perf_counter() - block_start, count=SERVE_WARM_BLOCK)
                block_start = time.perf_counter()
        return samples, time.perf_counter() - start

    def measure(self, seconds: float, tally: Tally) -> Tally:
        self.warm_up()
        _, cold_wall = self.cold(tally)
        window = max(seconds - cold_wall, seconds / 4)
        samples, _ = self.warm(tally, until=time.perf_counter() + window)
        tally.extra["cold_requests"] = len(self.requests)
        tally.extra["warm_requests"] = len(samples)
        return tally

    def trace(self, tracer: LayerTracer) -> Tuple[Tally, float, float]:
        self.warm_up()
        tally = Tally()
        cold, cold_wall = self.cold(tally)
        _, untraced_wall = self.warm(Tally(), until=None, count=SERVE_TRACE_WARM // 2)
        warm, warm_wall = self.warm(tally, until=None, count=SERVE_TRACE_WARM // 2)
        hits = rejected = 0
        for latency, response in cold + warm:
            if isinstance(response, str):
                if response.startswith(("HTTP 429", "HTTP 503")):
                    rejected += 1
                tracer.add_time("service.transport_s", latency)
                continue
            hits += response.cache == "hit"
            queue, compute = response.queue_seconds, response.compute_seconds
            tracer.add_time("service.queue_s", queue)
            tracer.add_time("service.compute_s", compute)
            tracer.add_time("service.transport_s", latency - queue - compute)
        busy = sum(latency for latency, _ in cold + warm)
        wall = cold_wall + warm_wall
        tracer.wall_seconds += wall
        tracer.add_time(UNATTRIBUTED, wall - busy)
        tracer.counts["service.hit_rate"] = hits / len(cold + warm)
        tracer.counts["service.rejected"] = rejected
        return tally, untraced_wall, warm_wall


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (SweepSmall, Table1, TwinWhatIf, ServeColdWarm)
}


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0
