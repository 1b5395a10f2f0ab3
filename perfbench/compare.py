"""Compare two sets of benchmark result records, refusing incomparable ones.

Usage::

    python3 perfbench/compare.py BASE_RESULTS_DIR CANDIDATE_RESULTS_DIR

Each directory holds the ``*.json`` records ``perfbench/run.py`` writes to
``.bench_build/perfbench/results/`` (copy them aside between the two sides).
Records are grouped by workload and trace mode.  A group is compared only
when every record on both sides has the same workload definition hash,
benchmark revision, run length and machine; otherwise the comparison is
refused (exit 3) instead of silently reporting numbers measured on different
cells or hosts.  For each end-to-end metric the medians of both sides are
printed with their quartiles, and a candidate median worse than the base by
more than the metric's bound in ``BENCHMARK.json`` is a regression (exit 1).
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

import measure

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> Dict[Tuple[str, int], List[dict]]:
    groups: Dict[Tuple[str, int], List[dict]] = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        groups[(record["workload"], record["trace"])].append(record)
    return groups


def compare(base_dir: Path, candidate_dir: Path, out=sys.stdout) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric for metric in spec["end_to_end"]}
    base, candidate = load(base_dir), load(candidate_dir)
    refused = regressed = False
    for key in sorted(set(base) & set(candidate)):
        records = base[key] + candidate[key]
        problems = sorted({problem for record in records[1:]
                           for problem in measure.comparability_problems(records[0], record)})
        workload, trace = key
        if problems:
            refused = True
            print(f"{workload} trace {trace}: refused", file=out)
            for problem in problems:
                print(f"  {problem}", file=out)
            continue
        print(f"{workload} trace {trace}: {len(base[key])} base vs "
              f"{len(candidate[key])} candidate run(s)", file=out)
        for name in sorted(base[key][0]["metrics"]):
            left = measure.summarize([r["metrics"][name]["median"] for r in base[key]])
            right = measure.summarize([r["metrics"][name]["median"] for r in candidate[key]])
            verdict = ""
            if name in bounds and left["median"]:
                change = right["median"] / left["median"] - 1.0
                worse = change if bounds[name]["better"] == "lower" else -change
                verdict = f"{change:+.1%}"
                if worse > bounds[name]["bound"]:
                    regressed = True
                    verdict += f" REGRESSION (bound {bounds[name]['bound']:.0%})"
            print(f"  {name:36s} base {left['median']:.6g} [{left['q1']:.6g}, "
                  f"{left['q3']:.6g}]  candidate {right['median']:.6g} "
                  f"[{right['q1']:.6g}, {right['q3']:.6g}]  {verdict}", file=out)
            for side, runs in (("base", base[key]), ("candidate", candidate[key])):
                spread = measure.relative_spread([r["metrics"][name]["median"] for r in runs])
                if name in bounds and spread > bounds[name]["bound"]:
                    print(f"    {side} spread {spread:.1%} exceeds the bound: "
                          f"unresolved", file=out)
    for key in sorted(set(base) ^ set(candidate)):
        print(f"{key[0]} trace {key[1]}: only on one side, not compared", file=out)
    return 3 if refused else 1 if regressed else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(compare(Path(sys.argv[1]), Path(sys.argv[2])))
