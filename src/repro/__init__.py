"""repro — reproduction of "Co-Design of Topology, Scheduling, and Path Planning
in Automated Warehouses" (Leet, Oh, Lora, Koenig, Nuzzo — DATE 2023).

The package is organised as a set of substrates plus the co-design core:

* :mod:`repro.solver`     — ILP / LP constraint solving (replaces Z3).
* :mod:`repro.contracts`  — assume-guarantee contract algebra (replaces CHASE).
* :mod:`repro.warehouse`  — the WSP formalization: maps, products, workloads, plans.
* :mod:`repro.maps`       — evaluation maps (fulfillment centers, sorting center).
* :mod:`repro.traffic`    — the traffic-system design framework (components, rules).
* :mod:`repro.core`       — flow synthesis, cycle decomposition, realization, pipeline.
* :mod:`repro.sim`        — discrete-event execution engine (digital twin): a
  deterministic, seedable event loop that executes realized plans on a tick
  clock with stochastic order streams, station service queues, telemetry, and a
  runtime monitor re-checking the assume-guarantee contracts against the
  observed flows; a disruption stage injects stochastic failures (agent
  breakdowns/slowdowns, station outages, blocked aisles, demand surges) with
  online recovery policies and resilience telemetry, turning the monitor into
  the paper's falsifiable instrument.
* :mod:`repro.mapf`       — MAPF / MAPD baselines (A*, CBS, ECBS/EECBS, MAPD).
* :mod:`repro.experiments`— scenario generation and parallel experiment
  orchestration: declarative scenario specs, grid/random/preset suites, a
  spawn-based batch runner with timeouts and crash isolation, and an
  append-only JSONL result store (``repro sweep`` on the command line).
* :mod:`repro.service`    — the concurrent serving layer above the whole
  pipeline: an HTTP front end (solve/batch/submit/status/result/health/
  metrics) over a content-addressed result cache (in-memory LRU +
  persistent JSONL tier, keyed on ``scenario_id``, with single-flight
  coalescing of identical in-flight requests) and a bounded worker pool
  with explicit backpressure and graceful drain (``repro serve`` /
  ``repro loadtest`` on the command line).
* :mod:`repro.obs`        — pipeline-wide observability: nestable tracing
  spans with monotonic timings and phase timers (zero-cost when disabled,
  deterministic serialization), a process-safe metrics registry (counters,
  gauges, fixed-bucket histograms; spawn-based workers serialize snapshots
  back to the parent; JSON + Prometheus text exposition), and the cProfile
  harness behind ``repro profile``.
* :mod:`repro.optimize`   — closed-loop design search above the pipeline:
  a declarative :class:`~repro.optimize.DesignSpace` of scenario knobs
  (slotting permutation, layout geometry), seeded hill-climbing /
  simulated-annealing optimizers, pluggable objectives, and cache-fronted
  evaluators (in-process pool, live service, remote replica fleet) driving
  resumable campaigns (``repro optimize`` on the command line, ``POST
  /optimize`` on the service)::

      DesignSpace --propose--> Optimizer --candidate--> Evaluator
           ^                                               |  (solve -> simulate,
           |                                               |   cache by scenario_id)
           +------ accept / reject <-- Objective <--score--+

* :mod:`repro.analysis`   — metrics (static and simulated), reporting and
  ASCII visualization, sweep aggregation, serving latency/throughput
  tables, span-tree/hotspot rendering, convergence traces, and regression
  comparison.
* :mod:`repro.io`         — map / plan / trace / scenario / run-record /
  service request-response serialization.

The main user-facing entry point is :class:`repro.core.pipeline.WSPSolver`:
``solve()`` runs stages 1-5 (design check, synthesis, decomposition,
realization, validation) and ``simulate()`` runs stage 6, executing the
realized plan in the digital twin — nominally, grid-routed, or under
failure injection (``SimulationConfig.disruptions``) — and returning a
:class:`repro.sim.runner.SimulationReport`.  Above the pipeline sits the
serving layer: ``repro serve`` answers solve/simulate traffic from a
content-addressed cache backed by a bounded worker pool.  See
``examples/quickstart.py`` for a five-minute tour,
``examples/simulate_fulfillment.py`` for the execution side,
``examples/resilient_simulation.py`` for the disruption/recovery tour,
``examples/serving.py`` for the serving layer, and
``examples/optimize_layout.py`` for closed-loop design search.
"""

__version__ = "1.10.0"

__all__ = ["__version__"]
