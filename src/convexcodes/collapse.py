"""Elementary collapses and the exact collapsibility decision.

A step (sigma, tau) is legal when tau is the only facet containing sigma;
applying it deletes every face containing sigma.  Three step vocabularies
are supported: ``generalized`` also allows sigma = tau (plain facet
deletion), ``collapse`` requires sigma strictly below tau, and ``strict``
additionally pins sigma one vertex short of tau.  The ``collapse`` and
``strict`` vocabularies decide the same collapsibility question, which the
test suite checks by running both engines side by side.

``is_collapsible`` is an exhaustive backtracking search over step choices,
so a No is a theorem (every branch explored), a Yes carries a replayable
step sequence ending at a single point, and Unknown happens only when the
node budget runs out.  The search itself runs in one pure-Python kernel,
``_collapse_py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .complexes import SimplicialComplex, face_label
from .errors import IllegalStep, VoidComplex
from .verdicts import Verdict

from . import _collapse_py

MODES = {
    "generalized": _collapse_py.MODE_GENERALIZED,
    "collapse": _collapse_py.MODE_COLLAPSE,
    "strict": _collapse_py.MODE_STRICT,
}
ENGINES = ("collapse", "strict")

DEFAULT_NODE_BUDGET = 5_000_000


def kernel_name() -> str:
    """Which search kernel this process is using."""
    return _collapse_py.KERNEL_NAME


@dataclass(frozen=True)
class Budget:
    """Resource limits for one collapsibility question.

    ``nodes`` caps how many complexes the search may expand; the greedy
    front end runs ``greedy_restarts`` seeded walks before backtracking
    begins and is disabled by setting it to 0.
    """

    nodes: int = DEFAULT_NODE_BUDGET
    greedy_restarts: int = 2
    seed: int = 0


@dataclass(frozen=True)
class CollapseStep:
    sigma: int
    tau: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"({face_label(self.sigma)},{face_label(self.tau)})"


@dataclass(frozen=True)
class CollapseOutcome:
    """Result of a collapsibility search.

    ``status`` Unknown holds exactly when ``budget_exhausted`` is set.  A
    Yes certificate replays from the input complex down to a single point;
    replay it with :func:`replay_certificate` to audit the claim.
    """

    status: Verdict
    certificate: Optional[tuple[CollapseStep, ...]]
    nodes_explored: int
    budget_exhausted: bool


def _mode_id(name: str) -> int:
    try:
        return MODES[name]
    except KeyError:
        raise ValueError(f"unknown step mode {name!r}; pick from {sorted(MODES)}") from None


def free_pairs(cx: SimplicialComplex, mode: str = "collapse") -> list[CollapseStep]:
    """All legal steps of the given mode, ordered by (|sigma|, sigma mask).

    Each sigma is nonempty and contained in exactly one facet, which is the
    returned tau.  The single point has no collapse-mode steps but one
    generalized step (the point paired with itself).
    """
    pairs = _collapse_py.free_pairs(tuple(cx.facets), _mode_id(mode))
    return [CollapseStep(s, t) for s, t in pairs]


def elementary_collapse(cx: SimplicialComplex, step: CollapseStep) -> SimplicialComplex:
    """Apply one step, deleting every face that contains step.sigma.

    Raises IllegalStep naming the violated condition when the step is not
    legal on this complex.  sigma = tau is allowed (facet deletion); use
    the search engines when strictly proper steps are required.
    """
    sigma, tau = step.sigma, step.tau
    if sigma == 0:
        raise IllegalStep("sigma is empty")
    if tau not in cx.facets:
        raise IllegalStep(f"tau {face_label(tau)} is not a facet")
    if sigma & ~tau:
        raise IllegalStep(
            f"sigma {face_label(sigma)} is not contained in tau {face_label(tau)}"
        )
    holders = [f for f in cx.facets if sigma & ~f == 0]
    if holders != [tau]:
        raise IllegalStep(
            f"sigma {face_label(sigma)} lies in {len(holders)} facets, not uniquely in tau"
        )
    new_facets = _collapse_py.apply_step(tuple(cx.facets), sigma, tau)
    return SimplicialComplex(cx.ambient_n, new_facets)


def is_collapsible(
    cx: SimplicialComplex,
    engine: str = "strict",
    budget: Budget = Budget(),
    memo: Optional[dict] = None,
    memoize: bool = True,
) -> CollapseOutcome:
    """Decide whether the complex collapses to a single point.

    ``engine`` picks the step vocabulary ("strict" by default; "collapse"
    explores arbitrary-codimension steps).  ``memo`` may be shared across
    calls to reuse decided subcomplexes; pass ``memoize=False`` to force a
    full re-exploration (decisions must not change, which is under test).
    """
    if cx.is_void:
        raise VoidComplex("collapsibility of the void complex is undefined")
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; pick from {ENGINES}")
    mode = _mode_id(engine)
    table = memo if memo is not None else {}
    status, steps, nodes = _collapse_py.search(
        tuple(cx.facets), mode, budget.nodes, budget.seed,
        budget.greedy_restarts, table, memoize)
    return _outcome(status, steps, nodes)


def greedy_collapse(
    cx: SimplicialComplex,
    seed: int = 0,
    restarts: int = 2,
    engine: str = "strict",
) -> CollapseOutcome:
    """Heuristic front end: seeded random walks, no backtracking.

    Yes with a certificate when some walk reaches a point; otherwise
    Unknown, never No (a stuck walk proves nothing about other orders).
    """
    if cx.is_void:
        raise VoidComplex("collapsibility of the void complex is undefined")
    mode = _mode_id(engine)
    status, steps, nodes = _collapse_py.greedy(tuple(cx.facets), mode, seed, restarts)
    return _outcome(status, steps, nodes)


def _outcome(status: int, steps, nodes: int) -> CollapseOutcome:
    if status == 1:
        cert = tuple(CollapseStep(s, t) for s, t in steps)
        return CollapseOutcome(Verdict.YES, cert, nodes, False)
    if status == 0:
        return CollapseOutcome(Verdict.NO, None, nodes, False)
    return CollapseOutcome(Verdict.UNKNOWN, None, nodes, True)


def replay_certificate(
    cx: SimplicialComplex,
    steps,
    require_proper: bool = True,
) -> SimplicialComplex:
    """Re-apply a step sequence, checking each step's legality from scratch.

    With ``require_proper`` every step must have sigma strictly below tau,
    which is what a collapsibility certificate promises.  Returns the final
    complex; raises IllegalStep the moment a step fails.
    """
    cur = cx
    for step in steps:
        if require_proper and step.sigma == step.tau:
            raise IllegalStep(f"step {step} deletes a facet instead of collapsing")
        cur = elementary_collapse(cur, step)
    return cur


def certifies_collapse(cx: SimplicialComplex, steps) -> bool:
    """True when the steps replay legally and end at a single point."""
    try:
        final = replay_certificate(cx, steps)
    except IllegalStep:
        return False
    return len(final.facets) == 1 and final.facets[0].bit_count() == 1
