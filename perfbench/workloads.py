"""The benchmark's three workloads: inputs, timed call, verdict checks.

Every input comes from ``instances`` and is made during set-up from the
workload seed; the package only ever receives the generated codes.  A
workload's pool is shuffled by the seed and cycled, and a run stops only on
a pass boundary, so the runs of one workload time the same mix of inputs
whatever their seed.

Timed calls go through module attributes (``analysis.classify``, not a
name bound at import) so the traced run's wrappers see them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from convexcodes import analysis, instances, realization
from convexcodes.collapse import Budget

import probes

# The node budget a sweep passes as --budget.  At the default 5M nodes a few
# codes take ~18 s each, too long to repeat in a run.
SEARCH7_BUDGET = Budget(nodes=5000)

# random_code(7, i) for i < 64.  Across windows of unrelated seeds the heavy
# tail moves throughput by ~50% (quartile distance over median), so the pool
# is fixed and the seed only sets its order.  64 codes put the 90th
# percentile among similar latencies and let a run hold two passes.
SEARCH7_POOL = 64


@dataclass(frozen=True)
class Workload:
    name: str
    budget: str                        # recorded with every result
    make_pool: Callable[[bool], list]  # small=True gives the self-test size
    pass_is_pool: bool                 # else a pass is a single input
    call: Callable                     # the timed work on one input
    decided: Callable                  # result -> no Unknown anywhere
    check: Callable                    # (code, result, oracle) -> [(probe, message)]

    def inputs(self, seed: int, small: bool = False) -> tuple[list, int]:
        """The seeded pool and its pass length."""
        pool = self.make_pool(small)
        random.Random(seed).shuffle(pool)
        return pool, len(pool) if self.pass_is_pool else 1


def _decided(report) -> bool:
    return not (report.locally_good.is_unknown or report.locally_great.is_unknown
                or report.mandatory_unknown)


def census4_call(code):
    return (analysis.classify(code), realization.good_cover_check(code),
            realization.realized_code_from_U(code))


def census4_decided(result) -> bool:
    return _decided(result[0]) and not result[1].is_unknown


def census4_check(code, result, oracle):
    report, cover, realized = result
    return [
        ("good-iff-goodcover", probes.good_iff_goodcover(report, cover)),
        ("realization-reproduces-code", probes.realization_matches(code, realized)),
        ("great-implies-good", probes.great_implies_good(report)),
    ]


def search7_call(code):
    return analysis.classify(code, SEARCH7_BUDGET)


def search7_check(code, report, oracle):
    return [
        ("certificates-replay", probes.search_certificates(code, report, SEARCH7_BUDGET, oracle)),
        ("great-implies-good", probes.great_implies_good(report)),
    ]


def spheres_call(code):
    return analysis.classify(code)


def spheres_check(code, report, oracle):
    return [
        ("sphere-verdicts", probes.sphere_verdicts(code, report)),
        ("great-implies-good", probes.great_implies_good(report)),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="census4",
            budget=f"{Budget().nodes} nodes (default)",
            make_pool=lambda small: list(instances.all_codes(2 if small else 4)),
            pass_is_pool=False,
            call=census4_call,
            decided=census4_decided,
            check=census4_check,
        ),
        Workload(
            name="search7",
            budget=f"{SEARCH7_BUDGET.nodes} nodes",
            make_pool=lambda small: [instances.random_code(4 if small else 7, i)
                                     for i in range(3 if small else SEARCH7_POOL)],
            pass_is_pool=True,
            call=search7_call,
            decided=_decided,
            check=search7_check,
        ),
        Workload(
            name="spheres",
            budget=f"{Budget().nodes} nodes (default)",
            make_pool=lambda small: [instances.c_n(k) for k in ((3, 4, 5) if small else (8, 9, 10))],
            pass_is_pool=True,
            call=spheres_call,
            decided=_decided,
            check=spheres_check,
        ),
    )
}
