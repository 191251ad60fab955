"""Elementary collapses and the exact collapsibility decision.

A step (sigma, tau) is legal when tau is the only facet containing sigma;
applying it deletes every face containing sigma.  Two step vocabularies,
the ``ENGINES``, are supported: ``collapse`` requires sigma strictly below
tau, and ``strict`` additionally pins sigma one vertex short of tau.  Both
decide the same collapsibility question, which the test suite checks by
running the two side by side.

``is_collapsible`` first runs ``Budget.greedy_restarts`` seeded random
walks, then an exhaustive backtracking search over step choices, so a No is
a theorem (every branch explored), a Yes carries a replayable step sequence
ending at a single point, and Unknown happens only when the node budget
runs out.  This module is the package's only search kernel, in pure Python.
It also replays, as strict steps, the strong collapses down to a point
that ``homology._strong_core`` records, which the contractibility ladder
gives as a certificate with no search.

States are tuples of facet masks sorted ascending, and candidate steps are
tried in (|sigma|, sigma) order.  The memo table maps ``(engine, state)`` to
``(decision, sigma, tau)``: decision 1 entries carry a winning first step,
so a certificate is rebuilt by replaying through the table; decision 0
entries record a fully explored dead end.  A caller may share one table
across calls.  The backtracking keeps its own stack, so its depth is not
bounded by Python's recursion limit; inside it, a branch reports 1
(collapsible), 0 (proved not collapsible) or -1 (cut off by the budget).

A node is counted every time a state has its free pairs enumerated, by a
greedy walk or by the backtracking alike; a repeat visit without a memo
hit counts again.  Each walk draws from a fixed 64-bit LCG seeded by the
budget's seed and the restart index, so decisions, certificates and node
counts depend only on the input, the seed, the budget and the memo table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .complexes import SimplicialComplex, face_label
from .errors import IllegalStep, InternalInconsistency, VoidComplex
from .verdicts import Verdict

ENGINES = ("collapse", "strict")

DEFAULT_NODE_BUDGET = 5_000_000

_M64 = (1 << 64) - 1
_MUL = 6364136223846793005
_INC = 1442695040888963407
_MIX = 0x9E3779B97F4A7C15


def kernel_name() -> str:
    """Which search kernel this process is using."""
    return "pure-python"


@dataclass(frozen=True)
class Budget:
    """Resource limits for one collapsibility question.

    ``nodes`` caps how many complexes the search may expand;
    :func:`is_collapsible` runs ``greedy_restarts`` seeded walks, drawn
    from ``seed``, before backtracking begins, and none when it is 0.
    """

    nodes: int = DEFAULT_NODE_BUDGET
    greedy_restarts: int = 2
    seed: int = 0


@dataclass(frozen=True)
class CollapseStep:
    sigma: int
    tau: int

    def __str__(self) -> str:
        n = (self.sigma | self.tau).bit_length()
        return f"({face_label(self.sigma, n)},{face_label(self.tau, n)})"


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


def _check_engine(name: str) -> None:
    if name not in ENGINES:
        raise ValueError(f"unknown engine {name!r}; pick from {ENGINES}")


def _is_point(state) -> bool:
    return len(state) == 1 and state[0].bit_count() == 1


def _unique(state, sigma, ti) -> bool:
    # sigma is contained in state[ti]; check no other facet contains it
    for i, f in enumerate(state):
        if i != ti and sigma & ~f == 0:
            return False
    return True


def _free_pairs(state, mode):
    """All legal (sigma, tau) steps of a state, sorted by (|sigma|, sigma)."""
    strict = mode == "strict"
    pairs = []
    for ti, t in enumerate(state):
        if strict:
            rem = t
            while rem:
                bit = rem & -rem
                rem ^= bit
                s = t ^ bit
                if s and _unique(state, s, ti):
                    pairs.append((s, t))
        else:
            sub = (t - 1) & t
            while sub:
                if _unique(state, sub, ti):
                    pairs.append((sub, t))
                sub = (sub - 1) & t
    pairs.sort(key=lambda st: (st[0].bit_count(), st[0]))
    return pairs


def _apply_step(state, sigma, tau):
    """Remove every face containing sigma; returns the new facet tuple.

    Only tau is affected, so the new facets are the remaining old ones
    plus those subsets of tau one vertex of sigma short of tau that no
    surviving facet already covers.
    """
    rest = [f for f in state if f != tau]
    new = list(rest)
    rem = sigma
    while rem:
        bit = rem & -rem
        rem ^= bit
        cand = tau ^ bit
        for f in rest:
            if cand & ~f == 0:
                break
        else:
            new.append(cand)
    new.sort()
    return tuple(new)


def _greedy_walk(start, mode, seed, restart, budget, table, counters) -> bool:
    """One seeded random walk; True when it (or the memo) reaches a point.

    ``counters`` is [expanded nodes, budget-denial flag], shared with the
    backtracking that may follow.
    """
    rng = ((seed ^ (restart * _MIX)) * _MUL + _INC) & _M64
    state = start
    path = []
    while True:
        if _is_point(state):
            break
        key = (mode, state)
        hit = table.get(key)
        if hit is not None:
            if hit[0] == 1:
                break
            return False
        if counters[0] >= budget:
            counters[1] = 1
            return False
        counters[0] += 1
        pairs = _free_pairs(state, mode)
        if not pairs:
            table[key] = (0, 0, 0)
            return False
        rng = (rng * _MUL + _INC) & _M64
        s, t = pairs[(rng >> 33) % len(pairs)]
        path.append((state, s, t))
        state = _apply_step(state, s, t)
    for st, s, t in path:
        table[(mode, st)] = (1, s, t)
    return True


def _dfs(state, mode, budget, table, counters):
    """Exhaustive backtracking below ``state``: 1, 0 or -1.

    Depth-first over free pairs in order, with an explicit stack of frames
    [key, pairs, index of the branch being explored, saw_unknown].  Node
    counts and memo writes follow the order of the plain recursion.
    """
    stack = []
    while True:
        # enter state: settle it at once, or open a frame for its branches
        r = None
        if _is_point(state):
            r = 1
        else:
            key = (mode, state)
            hit = table.get(key)
            if hit is not None:
                r = hit[0]
            elif counters[0] >= budget:
                counters[1] = 1
                r = -1
            else:
                counters[0] += 1
                pairs = _free_pairs(state, mode)
                if pairs:
                    stack.append([key, pairs, 0, False])
                else:
                    table[key] = (0, 0, 0)
                    r = 0
        # hand r up the stack until a frame has a branch left to enter
        while stack:
            frame = stack[-1]
            key, pairs, i, _ = frame
            if r is not None:
                if r == 1:
                    s, t = pairs[i]
                    table[key] = (1, s, t)
                    stack.pop()
                    continue
                if r == -1:
                    frame[3] = True
                i = frame[2] = i + 1
            if i < len(pairs):
                s, t = pairs[i]
                state = _apply_step(key[1], s, t)
                break
            stack.pop()
            if frame[3]:
                # cannot conclude No: some branch was cut off by the budget
                r = -1
            else:
                table[key] = (0, 0, 0)
                r = 0
        else:
            return r


def _certificate(state, mode, table) -> tuple[CollapseStep, ...]:
    """Replay the winning steps the table records from ``state`` to a point."""
    steps = []
    while not _is_point(state):
        _, s, t = table[(mode, state)]
        steps.append(CollapseStep(s, t))
        state = _apply_step(state, s, t)
    return tuple(steps)


def _strong_collapse_steps(facets, deletions) -> tuple[CollapseStep, ...]:
    """Strict steps that replay a strong core's deletions down to a single point.

    ``deletions`` is the record :func:`~convexcodes.homology._strong_core`
    gives: each deleted vertex v, in order, with a vertex w other than v
    that lies in every facet containing v.  Each facet f containing v,
    lowest first, is collapsed by the step (f - w, f): a facet containing
    f - w contains v, hence w, hence f, so f is the only one.  The new
    facets containing v still contain w, so the steps go on until v is
    gone: deleting v is a strong collapse, written out as elementary ones.
    A record that does not end at a point raises InternalInconsistency, so
    no certificate is given that fails to replay.
    """
    state = tuple(sorted(facets))
    steps = []
    for v, w in deletions:
        while f := next((f for f in state if f & v), 0):
            steps.append(CollapseStep(f ^ w, f))
            state = _apply_step(state, f ^ w, f)
    if not _is_point(state):
        raise InternalInconsistency("the strong collapse stopped short of a point")
    return tuple(steps)


def free_pairs(cx: SimplicialComplex, mode: str = "collapse") -> list[CollapseStep]:
    """All legal steps of the engine ``mode``, ordered by (|sigma|, sigma mask).

    ``mode`` is one of ``ENGINES``.  Each sigma is nonempty, strictly
    below tau and contained in exactly one facet, which is the returned
    tau, so a single point has no steps.
    """
    _check_engine(mode)
    return [CollapseStep(s, t) for s, t in _free_pairs(tuple(cx.facets), mode)]


def elementary_collapse(cx: SimplicialComplex, step: CollapseStep) -> SimplicialComplex:
    """Apply one step, deleting every face that contains step.sigma.

    Raises IllegalStep naming the violated condition when the step is not
    legal on this complex.  sigma = tau is allowed (facet deletion); use
    the search engines when strictly proper steps are required.
    """
    sigma, tau, n = step.sigma, step.tau, cx.ambient_n
    if sigma == 0:
        raise IllegalStep("sigma is empty")
    if tau not in cx.facets:
        raise IllegalStep(f"tau {face_label(tau, n)} is not a facet")
    if sigma & ~tau:
        raise IllegalStep(
            f"sigma {face_label(sigma, n)} is not contained in tau {face_label(tau, n)}"
        )
    holders = [f for f in cx.facets if sigma & ~f == 0]
    if holders != [tau]:
        raise IllegalStep(
            f"sigma {face_label(sigma, n)} lies in {len(holders)} facets, not uniquely in tau"
        )
    return SimplicialComplex(cx.ambient_n, _apply_step(tuple(cx.facets), sigma, tau))


def is_collapsible(
    cx: SimplicialComplex,
    engine: str = "strict",
    budget: Budget = Budget(),
    memo: Optional[dict] = None,
) -> CollapseOutcome:
    """Decide whether the complex collapses to a single point.

    ``engine`` picks the step vocabulary ("strict" by default; "collapse"
    explores arbitrary-codimension steps).  ``memo`` may be shared across
    calls to reuse decided subcomplexes; decisions do not depend on it.
    """
    if cx.is_void:
        raise VoidComplex("collapsibility of the void complex is undefined")
    _check_engine(engine)
    state = tuple(sorted(cx.facets))
    if _is_point(state):
        return CollapseOutcome(Verdict.YES, (), 0, False)
    table = memo if memo is not None else {}
    seed = budget.seed & _M64
    counters = [0, 0]  # expanded nodes, budget-denial flag
    status = None
    for r in range(budget.greedy_restarts):
        if _greedy_walk(state, engine, seed, r, budget.nodes, table, counters):
            status = 1
            break
        if counters[1]:
            break
    if status is None:
        status = _dfs(state, engine, budget.nodes, table, counters)
    if status == 1:
        return CollapseOutcome(Verdict.YES, _certificate(state, engine, table),
                               counters[0], False)
    if status == 0:
        return CollapseOutcome(Verdict.NO, None, counters[0], False)
    return CollapseOutcome(Verdict.UNKNOWN, None, counters[0], True)


def replay_certificate(cx: SimplicialComplex, steps) -> SimplicialComplex:
    """Re-apply a step sequence, checking each step's legality from scratch.

    Every step must have sigma strictly below tau, which is what a
    collapsibility certificate promises; :func:`elementary_collapse`
    applies a single facet deletion.  Returns the final complex; raises
    IllegalStep the moment a step fails.
    """
    cur = cx
    for step in steps:
        if step.sigma == step.tau:
            label = face_label(step.tau, cx.ambient_n)
            raise IllegalStep(f"step ({label},{label}) deletes a facet instead of collapsing")
        cur = elementary_collapse(cur, step)
    return cur


def certifies_collapse(cx: SimplicialComplex, steps) -> bool:
    """True when the steps replay legally and end at a single point."""
    try:
        final = replay_certificate(cx, steps)
    except IllegalStep:
        return False
    return len(final.facets) == 1 and final.facets[0].bit_count() == 1
