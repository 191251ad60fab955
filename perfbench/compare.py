"""Summarise benchmark result files, or compare two sets of them.

    python3 perfbench/compare.py perfbench/out            # medians and spreads
    python3 perfbench/compare.py NEW_DIR BASE_DIR          # NEW against BASE

``run.py`` writes one JSON file per run into ``perfbench/out``; copy that
directory aside to keep a set.  Each end-to-end metric of each workload is
summarised by its median and its spread, the distance between the first and
third quartiles as a share of the median.  A spread above the metric's bound
in ``BENCHMARK.json`` (``setup_s`` excepted) makes the set unsteady; with a
base set, a median worse than the base median by more than the bound is a
regression.  Either exits with status 1.  Results produced under different
search kernels are never compared: the command refuses with status 2.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}


def load(directory: str) -> dict:
    """{workload: {metric: [values]}} over the untraced runs in a directory."""
    table: dict = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        run = json.loads(path.read_text())
        metrics = table.setdefault(run["provenance"]["workload"], {})
        for name, entry in run["metrics"].items():
            metrics.setdefault(name, []).append(entry["value"])
    return table


def kernels(directory: str) -> set:
    return {json.loads(p.read_text())["provenance"]["kernel"]
            for p in Path(directory).glob("*-trace*.json")}


def spread(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(new: float, base: float, better: str) -> float:
    """How much worse new is than base, as a share of base (negative: better)."""
    change = (new - base) / base
    return -change if better == "higher" else change


def main(argv: list) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    found = set().union(*(kernels(d) for d in argv))
    if len(found) > 1:
        print(f"refusing to compare results from different kernels: {sorted(found)}",
              file=sys.stderr)
        return 2
    new = load(argv[0])
    base = load(argv[1]) if len(argv) == 2 else {}
    status = 0
    for workload, metrics in sorted(new.items()):
        for name, values in metrics.items():
            spec = BOUNDS[name]
            med, spr = statistics.median(values), spread(values)
            line = (f"{workload:8s} {name:16s} median {med:12.6g} {spec['unit']:5s} "
                    f"spread {spr:6.3f} (bound {spec['bound']}, n={len(values)})")
            if name != "setup_s" and spr > spec["bound"]:
                line += "  UNSTEADY"
                status = 1
            elif name != "setup_s" and spr > spec["bound"] / 3:
                line += "  spread above a third of the bound"
            if workload in base and name in base[workload]:
                ref = statistics.median(base[workload][name])
                worse = worse_by(med, ref, spec["better"])
                line += f"  vs base {ref:.6g}: {worse:+.3f} worse"
                if worse > spec["bound"]:
                    line += "  REGRESSED"
                    status = 1
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
