"""repro.optimize — closed-loop layout & slotting search over the pipeline.

The subsystem that turns the evaluator into a designer::

    DesignSpace ──neighbors──▶ Optimizer ──candidates──▶ Evaluator
         ▲                        │                          │
         │                     accept?◀──scores──── Objective◀─ RunRecord
         └──────────── best design / campaign log ◀──────────┘

* :mod:`~repro.optimize.space` — declarative knobs over ScenarioSpec
  (slotting permutation, layout geometry) with seeded, validity-filtered
  neighbor generation, plus named campaign presets.
* :mod:`~repro.optimize.objective` — pluggable record→score functions
  (throughput, makespan, fleet size) with finite worst-case penalties for
  infeasible/crashed candidates.
* :mod:`~repro.optimize.search` — hill climbing and simulated annealing
  behind a tiny :class:`~repro.optimize.search.Optimizer` protocol.
* :mod:`~repro.optimize.evaluate` — candidate scoring through the service
  layer: a ResultCache inline or a private SolveService locally, a live
  SolveService in-process, or a ``repro serve`` replica fleet over HTTP.
* :mod:`~repro.optimize.campaign` — the seeded, resumable campaign loop
  with a JSONL trajectory log and optimize.* observability events.
"""

from .campaign import (
    CAMPAIGN_SCHEMA,
    REPORT_SCHEMA,
    STEP_SCHEMA,
    CampaignLog,
    CampaignResult,
    StepRecord,
    run_campaign,
)
from .evaluate import CachedEvaluator, Evaluation, RemoteEvaluator, ServiceEvaluator
from .objective import (
    OBJECTIVES,
    WORST_SCORE,
    AgentsObjective,
    MakespanObjective,
    Objective,
    ThroughputObjective,
    make_objective,
)
from .search import OPTIMIZERS, HillClimbing, Optimizer, SimulatedAnnealing, make_optimizer
from .space import (
    OPTIMIZE_PRESETS,
    DesignSpace,
    IntKnob,
    OptimizeError,
    PermutationKnob,
    joint_space,
    knob_from_dict,
    layout_space,
    preset_space,
    slotting_space,
    sorting_space,
)

__all__ = [
    "CAMPAIGN_SCHEMA",
    "REPORT_SCHEMA",
    "STEP_SCHEMA",
    "CampaignLog",
    "CampaignResult",
    "StepRecord",
    "run_campaign",
    "CachedEvaluator",
    "Evaluation",
    "RemoteEvaluator",
    "ServiceEvaluator",
    "OBJECTIVES",
    "WORST_SCORE",
    "AgentsObjective",
    "MakespanObjective",
    "Objective",
    "ThroughputObjective",
    "make_objective",
    "OPTIMIZERS",
    "HillClimbing",
    "Optimizer",
    "SimulatedAnnealing",
    "make_optimizer",
    "OPTIMIZE_PRESETS",
    "DesignSpace",
    "IntKnob",
    "OptimizeError",
    "PermutationKnob",
    "joint_space",
    "knob_from_dict",
    "layout_space",
    "preset_space",
    "slotting_space",
    "sorting_space",
]
