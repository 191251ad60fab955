"""Reference implementations used only by the tests.

Everything here is written straight from the definitions with frozensets
of labels and plain Python arithmetic, deliberately avoiding the bit-mask
and sparse-column machinery of the package, so agreement is evidence
rather than tautology.
"""

from functools import lru_cache
from itertools import combinations

from convexcodes.complexes import face_members, face_of


def to_set(mask):
    return frozenset(face_members(mask))


def to_mask(s):
    return face_of(sorted(s))


def downward_closure(facet_sets):
    """All subsets of the given facets, the empty set included."""
    faces = set()
    for f in facet_sets:
        mem = sorted(f)
        for r in range(len(mem) + 1):
            for combo in combinations(mem, r):
                faces.add(frozenset(combo))
    return faces


def complex_faces(cx):
    """Face set of a package complex, derived only from its facet masks."""
    return downward_closure(to_set(f) for f in cx.facets)


def link_faces(faces, sigma):
    """Link by definition: tau disjoint from sigma with their union a face."""
    return {t for t in faces if not (t & sigma) and (t | sigma) in faces}


def maximal_sets(family):
    fam = set(family)
    return {f for f in fam if not any(f < g for g in fam)}


def component_count(faces):
    """Connected components of the vertex set under the edge relation."""
    verts = sorted({v for f in faces for v in f})
    parent = {v: v for v in verts}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for f in faces:
        mem = sorted(f)
        for a, b in zip(mem, mem[1:]):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    return len({find(v) for v in verts})


def rank_mod_p(rows, p):
    """Gaussian elimination over GF(p) with plain Python integers."""
    mat = [list(r) for r in rows]
    if not mat or not mat[0]:
        return 0
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col] % p), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [(x * inv) % p for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] % p:
                c = mat[r][col]
                mat[r] = [(a - c * b) % p for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def reduced_betti(faces, p):
    """Reduced Betti numbers from the definition, faces given as frozensets.

    Builds each boundary matrix over sorted-tuple faces, with the empty
    face as the sole (-1)-dimensional cell, and takes ranks over GF(p).
    """
    faces = set(faces) | {frozenset()}
    dim = max(len(f) for f in faces) - 1
    if dim < 0:
        return ()
    by_dim = {
        k: sorted(tuple(sorted(f)) for f in faces if len(f) == k + 1)
        for k in range(-1, dim + 1)
    }
    ranks = {}
    for k in range(0, dim + 1):
        rows = by_dim[k - 1]
        cols = by_dim[k]
        index = {f: i for i, f in enumerate(rows)}
        mat = [[0] * len(cols) for _ in rows]
        for j, f in enumerate(cols):
            for i, v in enumerate(f):
                sub = f[:i] + f[i + 1 :]
                mat[index[sub]][j] = (-1) ** i % p
        ranks[k] = rank_mod_p(mat, p)
    ranks[dim + 1] = 0
    return tuple(len(by_dim[k]) - ranks[k] - ranks[k + 1] for k in range(dim + 1))


def naive_reduced_betti(cx, p):
    """Reduced Betti numbers over F_p with the package's matrices on the whole complex.

    The reference for the strong-collapse core in
    ``homology.reduced_betti``: every face of ``cx`` feeds
    ``boundary_matrix`` and ``rank_mod_p``, with no vertex deleted.
    Returns a ``BettiVector``.
    """
    from convexcodes.homology import BettiVector, boundary_matrix, rank_mod_p

    dim = cx.dimension()
    if dim < 0:
        return BettiVector(p, ())
    counts = cx.f_vector()
    ranks = [rank_mod_p(boundary_matrix(cx, k, p)) for k in range(dim + 1)] + [0]
    return BettiVector(p, tuple(counts[k] - ranks[k] - ranks[k + 1] for k in range(dim + 1)))


def euler_characteristic(faces):
    """Alternating-sum Euler characteristic, empty face not counted."""
    return sum((-1) ** (len(f) - 1) for f in faces if f)


def count_chains_by_length(faces):
    """Number of inclusion chains of each length among the given sets.

    Returns a tuple c where c[k] counts chains of k+1 distinct elements.
    """
    elems = sorted(set(faces), key=lambda f: (len(f), sorted(f)))
    counts = {}

    def grow(last_idx, length):
        counts[length] = counts.get(length, 0) + 1
        for j in range(len(elems)):
            if j != last_idx and elems[last_idx] < elems[j]:
                grow(j, length + 1)

    for i in range(len(elems)):
        grow(i, 1)
    return tuple(counts.get(k + 1, 0) for k in range(max(counts))) if counts else ()


def free_pairs_by_definition(cx, mode):
    """All legal steps straight from the uniqueness definition."""
    faces = complex_faces(cx)
    facets = maximal_sets(f for f in faces if f)
    out = []
    for sigma in faces:
        if not sigma:
            continue
        holders = [t for t in facets if sigma <= t]
        if len(holders) != 1:
            continue
        tau = holders[0]
        if mode == "collapse":
            ok = sigma < tau
        else:
            ok = len(sigma) == len(tau) - 1
        if ok:
            out.append((to_mask(sigma), to_mask(tau)))
    return sorted(out, key=lambda st: (bin(st[0]).count("1"), st[0]))


def naive_locally_good(code, budget=None, primes=(2, 3, 5)):
    """Local goodness with no reduction of the quantifier.

    Checks the link of every nonempty missing face of the code's complex,
    not just the facet intersections, exercising the claim that the
    smaller set of faces decides the same verdict.
    """
    from convexcodes.analysis import contractibility_status
    from convexcodes.collapse import Budget
    from convexcodes.complexes import closure, link
    from convexcodes.verdicts import Verdict

    cx = closure(code)
    budget = budget or Budget()
    memo = {}
    saw_unknown = False
    for sigma in cx.faces():
        if sigma == 0 or sigma in code.words:
            continue
        st = contractibility_status(link(cx, sigma), budget=budget, memo=memo, primes=primes)
        if st.value is Verdict.NO:
            return Verdict.NO, sigma
        if st.value is Verdict.UNKNOWN:
            saw_unknown = True
    return (Verdict.UNKNOWN, None) if saw_unknown else (Verdict.YES, None)


def naive_locally_great(code, budget=None):
    """Local greatness with no reduction of the quantifier.

    Searches the link of every nonempty missing face of the code's
    complex for a collapse, with no shortcut for cone links or for links
    the contractibility ladder already settled.  Returns the verdict and
    the first No face, else the first undecided face, else None.
    """
    from convexcodes.collapse import Budget, is_collapsible
    from convexcodes.complexes import closure, link
    from convexcodes.verdicts import Verdict

    cx = closure(code)
    budget = budget or Budget()
    memo = {}
    first_unknown = None
    for sigma in cx.faces():
        if sigma == 0 or sigma in code.words:
            continue
        status = is_collapsible(link(cx, sigma), "strict", budget, memo).status
        if status is Verdict.NO:
            return Verdict.NO, sigma
        if status is Verdict.UNKNOWN and first_unknown is None:
            first_unknown = sigma
    if first_unknown is not None:
        return Verdict.UNKNOWN, first_unknown
    return Verdict.YES, None


def naive_order_complex(faces):
    """The order complex of the inclusion order, from the definition, on frozensets.

    Vertex k + 1 is the k-th distinct input face in (size, mask) order.
    Every chain, each face a strict subset of the next, is listed; the
    facets are the chains that no further input face extends, that is,
    no face outside the chain is comparable with all of its members.
    Returns a package complex on as many vertices as distinct faces.
    """
    from convexcodes.complexes import SimplicialComplex

    elems = sorted({to_set(f) for f in faces}, key=lambda s: (len(s), to_mask(s)))
    chains = []

    def grow(chain):
        chains.append(chain)
        for x in elems:
            if chain[-1] < x:
                grow(chain + [x])

    for x in elems:
        grow([x])
    maximal = [c for c in chains
               if not any(x not in c and all(x <= y or y <= x for y in c) for x in elems)]
    index = {s: k for k, s in enumerate(elems)}
    return SimplicialComplex(
        len(elems), tuple(sorted(sum(1 << index[s] for s in c) for c in maximal)))


def naive_good_cover(code, budget=None, primes=(2, 3, 5)):
    """The good-cover check from the definition: one order complex per face.

    The cover intersection over every nonempty face tau of the code's
    complex, codewords included, is the order complex of the codewords
    containing tau, decided by ``contractibility_status`` alone with only
    the search memo shared; every face is decided, in (size, mask) order.
    The region over a face depends on it only through its meet, the
    intersection of the codewords containing it, so the verdict is then
    quantified over the meets in (size, mask) order, each meet taking the
    status of its first face.  No cone rule and no sharing between faces:
    the reference for both in ``convexcodes.realization``.  The order
    complexes come from :func:`naive_order_complex`, not the package's.
    A code with no nonempty face has nothing to check.
    """
    from convexcodes.analysis import contractibility_status
    from convexcodes.collapse import Budget
    from convexcodes.complexes import closure
    from convexcodes.verdicts import R_ALL_REGIONS, R_VACUOUS, TriStatus, Verdict, for_all

    budget = budget or Budget()
    memo = {}
    by_meet = {}
    for tau in closure(code).faces():
        if not tau:
            continue
        upset = [w for w in code.words if tau & ~w == 0]
        status = contractibility_status(naive_order_complex(upset), budget, memo, primes)
        by_meet.setdefault(to_mask(frozenset.intersection(*map(to_set, upset))), status)
    if not by_meet:
        return TriStatus(Verdict.YES, R_VACUOUS)
    order = sorted(by_meet, key=lambda meet: (len(to_set(meet)), meet))
    return for_all(((meet, by_meet[meet]) for meet in order), R_ALL_REGIONS)


@lru_cache(maxsize=4096)
def _adjacent_chambers(positive, zero):
    """The label sets S with positive part P <= S <= P | Z, as frozensets."""
    pos, zero = to_set(positive), to_set(zero)
    return tuple(pos | frozenset(extra) for r in range(len(zero) + 1)
                 for extra in combinations(sorted(zero), r))


def naive_cell_word(word_sets, positive, zero, closed=False):
    """The word a realization gives the cell (positive, zero), from the definition.

    ``word_sets`` holds the codewords as frozensets of labels.  The open
    rule gives the cell's positive part when every adjacent chamber is a
    codeword and nothing otherwise; the closed rule gives the union of the
    adjacent chambers that are codewords.
    """
    chambers = _adjacent_chambers(positive, zero)
    if closed:
        return to_mask(frozenset().union(*(s for s in chambers if s in word_sets)))
    return positive if all(s in word_sets for s in chambers) else 0


def naive_realized_code(code, closed=False):
    """The realized code read off every cell (P, Z), one cell at a time.

    The cells are listed here from the definition, P a nonempty label set
    and Z a label set disjoint from it, and sorted by (|Z|, P, Z) as
    masks, so the word set is built in the order, and laid out exactly
    as, the package's reader must build it.
    """
    from convexcodes.complexes import Code

    labels = range(1, code.ambient_n + 1)
    subsets = [frozenset(c) for r in range(len(labels) + 1) for c in combinations(labels, r)]
    cells = sorted((len(z), to_mask(p), to_mask(z)) for p in subsets if p
                   for z in subsets if not p & z)
    word_sets = {to_set(w) for w in code.words}
    return Code(code.ambient_n, frozenset(
        w for _, p, z in cells if (w := naive_cell_word(word_sets, p, z, closed))))


def recursive_dfs(state, mode, budget, table, counters, memoize=True):
    """The collapse search's backtracking written as plain recursion.

    Same contract as ``convexcodes.collapse._dfs``, which keeps an explicit
    stack instead and must match this node for node and memo entry for
    memo entry.  With ``memoize=False`` no decision is read back from the
    table, so every state is explored afresh: the reference the memoized
    search must agree with.  Depth is bounded by Python's recursion limit.
    """
    from convexcodes.collapse import _apply_step, _free_pairs, _is_point

    if _is_point(state):
        return 1
    key = (mode, state)
    if memoize:
        hit = table.get(key)
        if hit is not None:
            return hit[0]
    if counters[0] >= budget:
        counters[1] = 1
        return -1
    counters[0] += 1
    pairs = _free_pairs(state, mode)
    if not pairs:
        table[key] = (0, 0, 0)
        return 0
    saw_unknown = False
    for s, t in pairs:
        r = recursive_dfs(_apply_step(state, s, t), mode, budget, table, counters, memoize)
        if r == 1:
            table[key] = (1, s, t)
            return 1
        if r == -1:
            saw_unknown = True
    if saw_unknown:
        return -1
    table[key] = (0, 0, 0)
    return 0


def scanning_strong_collapse_steps(facets):
    """Strict steps of a strong collapse to a point, found by scanning the state.

    The reference for ``collapse._strong_collapse_steps``, which replays
    ``homology._strong_core``'s record instead of scanning: in the current
    state, the lowest vertex v whose facets share another vertex is
    deleted, with w the lowest such other vertex, by the steps (f - w, f)
    over the facets f containing v, lowest first; then the scan starts
    again.  The replay must give the same steps.  A complex whose strong
    core is not a point raises InternalInconsistency.
    """
    from convexcodes.collapse import CollapseStep, _apply_step, _is_point
    from convexcodes.errors import InternalInconsistency

    state = tuple(sorted(facets))
    steps = []
    while not _is_point(state):
        support = 0
        for f in state:
            support |= f
        w = 0
        while support and not w:
            v = support & -support
            support ^= v
            meet = -1
            for f in state:
                if f & v:
                    meet &= f
            w = (meet ^ v) & -(meet ^ v)
        if not w:
            raise InternalInconsistency("the strong collapse stopped short of a point")
        while f := next((f for f in state if f & v), 0):
            steps.append(CollapseStep(f ^ w, f))
            state = _apply_step(state, f ^ w, f)
    return tuple(steps)
