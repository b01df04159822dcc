"""Compare two sets of benchmark results and name the layer behind a regression.

Usage (from the repository root)::

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by ``run.py`` (a copy of
``.perfbench/results/`` taken on each commit).  For every workload in both
sets the report first lists outcome digests that changed for the same seed,
then each end-to-end metric's median on both sides.  A metric that got worse
by more than its bound in ``BENCHMARK.json`` is flagged with the layer whose
self time (median over the traced runs) grew the most.  Exits 1 when a digest
changed or a metric regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from layers import LAYER_TIMES

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: Path) -> Dict[Tuple[str, int], List[Dict]]:
    """Results keyed by (workload, trace flag)."""
    runs: Dict[Tuple[str, int], List[Dict]] = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text())
        runs[result["workload"], result["trace"]].append(result)
    return runs


def medians(results: List[Dict]) -> Dict[str, float]:
    values: Dict[str, List[float]] = defaultdict(list)
    for result in results:
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
    return {name: statistics.median(series) for name, series in values.items()}


def moved_layer(base: List[Dict], new: List[Dict]) -> Optional[Tuple[str, float]]:
    """The layer whose median self time grew the most, with the growth."""
    if not base or not new:
        return None
    before, after = medians(base), medians(new)
    return max(
        ((layer, after.get(layer, 0.0) - before.get(layer, 0.0)) for layer in LAYER_TIMES),
        key=lambda item: item[1],
    )


def compare(base_dir: Path, new_dir: Path) -> int:
    spec = json.loads(BENCHMARK.read_text())
    bounds = {metric["name"]: metric for metric in spec["end_to_end"]}
    base, new = load(base_dir), load(new_dir)
    flagged = 0
    for workload in sorted({name for name, _ in base} & {name for name, _ in new}):
        print(f"== {workload}")
        for trace in (0, 1):
            before = {r["seed"]: r["digest"] for r in base.get((workload, trace), [])}
            for result in new.get((workload, trace), []):
                old = before.get(result["seed"])
                if old is not None and old != result["digest"]:
                    flagged += 1
                    print(f"  DIGEST CHANGED seed {result['seed']} trace {trace}: "
                          f"{old} -> {result['digest']}")
        if not base.get((workload, 0)) or not new.get((workload, 0)):
            print("  (no untraced runs on one side)")
            continue
        before, after = medians(base[workload, 0]), medians(new[workload, 0])
        for name, metric in bounds.items():
            if name not in before or name not in after:
                continue
            old, current = before[name], after[name]
            change = (current - old) / old if old else 0.0
            worse = change if metric["better"] == "lower" else -change
            verdict = "ok"
            if worse > metric["bound"]:
                flagged += 1
                verdict = "REGRESSION"
                layer = moved_layer(base.get((workload, 1), []), new.get((workload, 1), []))
                if layer is None:
                    verdict += " (no traced runs to name a layer)"
                else:
                    verdict += f"; layer {layer[0]} self time {layer[1]:+.4g} s"
            elif worse < -metric["bound"]:
                verdict = "better"
            print(f"  {name:22s} {old:12.6g} -> {current:12.6g} {metric['unit']:6s} "
                  f"{change:+8.2%} (bound {metric['bound']:.0%}) {verdict}")
    return 1 if flagged else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(compare(Path(sys.argv[1]), Path(sys.argv[2])))
