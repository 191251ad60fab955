"""The collapsibility search kernel, in pure Python.

This is the package's only search kernel; ``collapse`` wraps it.  Candidate
steps are tried in (|sigma|, sigma) order and the greedy walks draw from a
fixed 64-bit LCG, so decisions, certificates and node counts depend only
on the input, the seed and the budget.  The exhaustive search keeps its
own stack, so its depth is not bounded by Python's recursion limit.

States are tuples of facet masks sorted ascending.  The memo table maps
``(mode, state)`` to ``(decision, sigma, tau)``: decision 1 entries carry
a winning first step so certificates can be rebuilt by replaying through
the table, decision 0 entries record a fully explored dead end.  Decision
lookups are skipped when memoization is off, but winning steps are always
recorded because certificate reconstruction reads them back.

A node is counted every time a state has its free pairs enumerated;
repeat visits without a memo hit count again.  The search returns
status 1 (collapsible), 0 (proved not collapsible, every branch explored),
or -1 (node budget exhausted before the answer was pinned down).
"""

from __future__ import annotations

MODE_GENERALIZED = 0
MODE_COLLAPSE = 1
MODE_STRICT = 2

_M64 = (1 << 64) - 1
_MUL = 6364136223846793005
_INC = 1442695040888963407
_MIX = 0x9E3779B97F4A7C15


def is_point(state) -> bool:
    return len(state) == 1 and state[0].bit_count() == 1


def _unique(state, sigma, ti) -> bool:
    # sigma is contained in state[ti]; check no other facet contains it
    for i, f in enumerate(state):
        if i != ti and sigma & ~f == 0:
            return False
    return True


def free_pairs(state, mode):
    """All legal (sigma, tau) steps, sorted by (|sigma|, sigma)."""
    pairs = []
    for ti, t in enumerate(state):
        if mode == MODE_STRICT:
            rem = t
            while rem:
                bit = rem & -rem
                rem ^= bit
                s = t ^ bit
                if s and _unique(state, s, ti):
                    pairs.append((s, t))
        else:
            sub = t if mode == MODE_GENERALIZED else (t - 1) & t
            while sub:
                if _unique(state, sub, ti):
                    pairs.append((sub, t))
                sub = (sub - 1) & t
    pairs.sort(key=lambda st: (st[0].bit_count(), st[0]))
    return pairs


def apply_step(state, sigma, tau):
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


def _greedy_walk(start, mode, seed, restart, budget, table, memoize, counters):
    rng = ((seed ^ (restart * _MIX)) * _MUL + _INC) & _M64
    state = start
    path = []
    while True:
        if is_point(state):
            for st, s, t in path:
                table[(mode, st)] = (1, s, t)
            return 1
        key = (mode, state)
        if memoize:
            hit = table.get(key)
            if hit is not None:
                if hit[0] == 1:
                    for st, s, t in path:
                        table[(mode, st)] = (1, s, t)
                    return 1
                return 0
        if counters[0] >= budget:
            counters[1] = 1
            return 0
        counters[0] += 1
        pairs = free_pairs(state, mode)
        if not pairs:
            table[key] = (0, 0, 0)
            return 0
        rng = (rng * _MUL + _INC) & _M64
        s, t = pairs[(rng >> 33) % len(pairs)]
        path.append((state, s, t))
        state = apply_step(state, s, t)


def _dfs(state, mode, budget, table, memoize, counters):
    """Exhaustive backtracking below ``state``: 1, 0, or -1 as in ``search``.

    Depth-first over free pairs in order, with an explicit stack of frames
    [key, pairs, index of the branch being explored, saw_unknown].  Node
    counts and memo writes follow the order of the plain recursion.
    """
    stack = []
    while True:
        # enter state: settle it at once, or open a frame for its branches
        r = None
        if is_point(state):
            r = 1
        else:
            key = (mode, state)
            hit = table.get(key) if memoize else None
            if hit is not None:
                r = hit[0]
            elif counters[0] >= budget:
                counters[1] = 1
                r = -1
            else:
                counters[0] += 1
                pairs = free_pairs(state, mode)
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
                state = apply_step(key[1], s, t)
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


def search(facets, mode, budget, seed, restarts, table, memoize):
    """Full collapsibility decision; see the module docstring for the contract."""
    state = tuple(sorted(facets))
    seed &= _M64
    if is_point(state):
        return 1, [], 0
    counters = [0, 0]  # expanded nodes, budget-denial flag
    status = None
    for r in range(restarts):
        if _greedy_walk(state, mode, seed, r, budget, table, memoize, counters) == 1:
            status = 1
            break
        if counters[1]:
            break
    if status is None:
        status = _dfs(state, mode, budget, table, memoize, counters)
    if status == 1:
        steps = []
        cur = state
        while not is_point(cur):
            _, s, t = table[(mode, cur)]
            steps.append((s, t))
            cur = apply_step(cur, s, t)
        return 1, steps, counters[0]
    return status, None, counters[0]


def greedy(facets, mode, seed, restarts):
    """Seeded random walks only; status 1 with steps, or -1 after all restarts."""
    state = tuple(sorted(facets))
    seed &= _M64
    nodes = 0
    if is_point(state):
        return 1, [], 0
    for r in range(restarts):
        rng = ((seed ^ (r * _MIX)) * _MUL + _INC) & _M64
        cur = state
        path = []
        while True:
            if is_point(cur):
                return 1, path, nodes
            pairs = free_pairs(cur, mode)
            nodes += 1
            if not pairs:
                break
            rng = (rng * _MUL + _INC) & _M64
            s, t = pairs[(rng >> 33) % len(pairs)]
            path.append((s, t))
            cur = apply_step(cur, s, t)
    return -1, None, nodes


KERNEL_NAME = "pure-python"
