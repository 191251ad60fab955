"""Link-based convexity obstructions for combinatorial codes.

The verdict chain this module serves: convex implies locally great implies
good-cover realizable, which is equivalent to locally good, which implies
connected.  None of the one-way arrows reverses in general.  Everything
here is decided at the level of links inside the code's complex:

* a code is locally good when every face of its complex that is missing
  from the code has a contractible link, and it suffices to check the
  intersections of maximal codewords (any face outside that family has a
  cone link, so it can never obstruct);
* a code is locally great when every missing face has a collapsible link,
  a strictly stronger, fully decidable demand.  Only the missing facet
  intersections are walked, for the same reason: every other face has a
  cone link, and a cone is collapsible.  Collapsibility is read off the
  link's contractibility status, with no search of its own: the ladder's
  last rung is the collapse search itself, and every earlier rung that
  settles contractibility settles collapsibility too.  A No reports the
  ``nodes_explored`` of the one search that decided the link, or 0 when a
  tree test or nonzero Betti numbers decided it.

Both verdicts and the mandatory codewords are read off one link table per
code: each facet intersection with its link's contractibility status,
decided on first read.  Links that differ only by an order-preserving
relabel of their vertices have one shape, and the table decides each
shape once: a later link of a known shape takes the stored status
without being built.  Links whose status carries labels or a node count,
a collapse certificate or the search's verdict, are built and decided
one by one, sharing one memo of the search's states and of Betti
numbers.  The Betti numbers are computed on each link's
strong-collapse core, once per core shape and prime: links of different
shapes often share a core, most often the 3-cycle or the boundary of the
tetrahedron.

Contractibility itself is semidecidable, so the checker climbs a ladder of
exact special cases (graphs, cones, a strong-collapse core that is a
single vertex), then homology, then the collapse search, and answers
Unknown only when every rung fails inside budget.  Recognising
collapsibility is NP-complete, so the search comes last.  A strong
collapse is a sequence of elementary collapses, so a link whose strong
core is a point is collapsible, and the steps that prove it are written
down with no search, by replaying the deletions that homology's one scan
for dominated vertices records.  Homology comes before the search
because it is cheap: a nonzero reduced Betti number proves the link
neither contractible nor collapsible, so no search runs on such a link.
"""

from __future__ import annotations

from dataclasses import dataclass

from .collapse import Budget, _is_point, _strong_collapse_steps, is_collapsible
from .complexes import (
    MAX_FACE_ENUMERATION,
    Code,
    SimplicialComplex,
    closure,
    cone,
    face_label,
    link,
    _face_sort_key,
    _shape,
)
from .errors import EmptyInput, InternalInconsistency, LabelOutOfRange, TooLarge, VoidComplex
from .homology import DEFAULT_PRIMES, _betti_vectors, _check_primes, _strong_core
# nothing here calls reduced_betti; perfbench/tracing.py install wraps it by name
from .homology import reduced_betti
from .verdicts import (
    R_ALL_LINKS,
    R_BUDGET,
    R_COLLAPSE_CERT,
    R_CONE_APEX,
    R_INCONCLUSIVE,
    R_NONZERO_BETTI,
    R_NOT_COLLAPSIBLE,
    R_TREE_TEST,
    R_VACUOUS,
    TriStatus,
    Verdict,
    for_all,
)

IMPLICATION_NOTES = (
    "Verdict chain: convex implies locally great implies good-cover "
    "realizable, which holds exactly when the code is locally good, which "
    "implies the code complex is connected. No converse holds in general: "
    "locally good does not give locally great, and locally great does not "
    "give convex. Convexity itself is never decided here."
)


def _graph_summary(facets: tuple[int, ...]) -> dict:
    """Vertex, edge, and component counts of a complex of dimension <= 1.

    Read off the facets alone: every edge of such a complex is a facet,
    and its vertices are the bits of the support.
    """
    support = 0
    for f in facets:
        support |= f
    parent = {}  # non-root vertex bit -> its parent

    def find(x):
        while x in parent:
            x = parent[x]
        return x

    edges = merges = 0
    for e in facets:
        if e.bit_count() == 2:
            edges += 1
            lo = e & -e
            a, b = find(lo), find(e ^ lo)
            if a != b:
                parent[a] = b
                merges += 1
    vertices = support.bit_count()
    return {"vertices": vertices, "edges": edges, "components": vertices - merges}


def contractibility_status(
    cx: SimplicialComplex,
    budget: Budget = Budget(),
    memo: dict | None = None,
    primes=DEFAULT_PRIMES,
) -> TriStatus:
    """Is the complex contractible?  Yes and No are proofs, Unknown is honest.

    Strategy ladder, in order: exact graph test for dimension <= 1 (a graph
    is contractible exactly when it is a tree, and the empty and multi-point
    complexes fail), cone detection (a vertex lying in every facet), a
    strong-collapse core that is a single vertex, nonvanishing reduced
    homology over the given primes as a disproof, then a collapsibility
    certificate from the greedy walks and the exhaustive search.  The core
    rung answers Yes [``collapse-certificate``] with the strong collapses
    written out as strict elementary steps, lowest dominated vertex first,
    so it needs neither homology nor a search, and its certificate replays
    under :func:`~convexcodes.collapse.certifies_collapse` like the
    search's.  A complex that is acyclic yet admits no collapse stays
    Unknown: ``inconclusive`` when the search proved it not collapsible,
    ``budget`` when the search was cut off.  Both carry the search's node
    count as the certificate ``{"nodes_explored": n}``, so every rung but
    ``budget`` also settles collapsibility, and no second search is needed.

    One scan, ``homology._strong_core``, builds the core, which has the
    complex's homotopy type, and records its deletions: the core rung
    replays the record, and the Betti rung reads each prime's vector of
    the core from ``homology._betti_vectors``.  ``memo`` is shared with the
    search, whose entries are keyed ``(mode, state)``, and with
    ``_betti_vectors``, which keeps the core's vectors by prime and core
    shape, since Betti numbers do not see labels.  The certificate is the
    core's vector padded with zeros to the complex's own dimension, what
    ``reduced_betti`` gives the complex itself.  ``memo=None`` uses a fresh
    dict for this call.

    A prime is checked only when its Betti numbers are first computed, so
    a non-prime raises ValueError only on a complex that reaches the Betti
    rung: like the tree and cone rungs, the core rung checks no prime.
    This runs once per link shape or cover region, and every caller
    in the package has checked its primes already: the link table behind
    ``classify``, ``mandatory_codewords`` and the two local predicates,
    ``good_cover_check``, and the ``links`` command's --primes parser.
    """
    if cx.is_void:
        raise VoidComplex("contractibility of the void complex is undefined")
    if cx.dimension() <= 1:
        g = _graph_summary(cx.facets)
        is_tree = (
            g["vertices"] >= 1
            and g["components"] == 1
            and g["edges"] == g["vertices"] - 1
        )
        value = Verdict.YES if is_tree else Verdict.NO
        return TriStatus(value, R_TREE_TEST, certificate=g)
    common = cx.facets[0]
    for f in cx.facets:
        common &= f
    if common:
        apex = common & -common
        return TriStatus(Verdict.YES, R_CONE_APEX, certificate=apex)
    core, deletions = _strong_core(cx)
    if _is_point(core.facets):
        steps = _strong_collapse_steps(cx.facets, deletions)
        return TriStatus(Verdict.YES, R_COLLAPSE_CERT, certificate=steps)
    for bv in _betti_vectors(core, cx.dimension(), primes, memo):
        if not bv.is_zero():
            return TriStatus(Verdict.NO, R_NONZERO_BETTI, certificate=bv)
    outcome = is_collapsible(cx, "strict", budget, memo)
    if outcome.status is Verdict.YES:
        return TriStatus(Verdict.YES, R_COLLAPSE_CERT, certificate=outcome.certificate)
    reason = R_BUDGET if outcome.budget_exhausted else R_INCONCLUSIVE
    nodes = {"nodes_explored": outcome.nodes_explored}
    return TriStatus(Verdict.UNKNOWN, reason, certificate=nodes)


def _intersections(masks) -> set[int]:
    """Every nonempty intersection of one or more of the masks, in one pass.

    Adding w to a family closed under intersection adds w and w & m for
    each member m, and nothing when w is a member.  Largest first puts a
    mask's supersets before it, which makes that common.  TooLarge refuses
    a family of more than ``MAX_FACE_ENUMERATION`` members.
    """
    members = set()
    for w in sorted(masks, reverse=True):
        if w not in members:
            members |= {w & m for m in members}
            members.add(w)
            members.discard(0)
            if len(members) > MAX_FACE_ENUMERATION:
                raise TooLarge(f"the intersection closure is capped at 2^20 members; "
                               f"this one reached {len(members)}")
    return members


def facet_intersections(cx: SimplicialComplex) -> frozenset[int]:
    """Closure of the facet set under intersection, nonempty members only.

    Every face whose link can fail to be contractible lies in this family,
    which is what lets the locally-good check skip the rest of the complex.
    """
    if cx.is_void:
        raise VoidComplex("the void complex has no facets")
    return frozenset(_intersections(cx.facets))


def _has_every_face(words: frozenset[int]) -> bool:
    """Is every nonempty face of the code's complex a codeword?

    It is exactly when every nonempty face one label smaller than a word
    is a word too: then, by induction on size, so is every nonempty
    subface.
    """
    for w in words:
        rest = w
        while rest:
            low = rest & -rest
            if w != low and w ^ low not in words:
                return False
            rest ^= low
    return True


# Ladder rungs whose status is a function of the link's shape alone: a
# graph's counts and a Betti vector carry no labels.  A collapse certificate
# names the link's own vertices, and a search's node count depends on the
# memo it shares, so their statuses are never reused by shape.
# No facet-intersection link is a cone: a vertex in every facet containing
# sigma lies in the intersection of those facets, which is sigma itself.
_SHAPE_RUNGS = (R_TREE_TEST, R_NONZERO_BETTI)


class _LinkTable:
    """Each facet intersection of a code's complex with its link's status.

    ``links`` has every facet intersection as a key, in (size, mask) order,
    and ``missing`` lists those that are not codewords, in the same order.
    A link is decided on its first read, through :meth:`entry`, and only
    its contractibility status is kept as the key's value, so one table
    serves the mandatory words, local goodness, local greatness and
    max-intersection completeness of one code.  A quantifier that stops at
    its first No leaves the links after it undecided.

    The status is decided once per link shape: the shape is read off the
    facets containing sigma, and a link whose shape already has a tree-test
    or nonzero-Betti status takes a copy of it without being built.  A link
    decided by a collapse certificate or the search is built and decided
    on its own, since its steps carry its labels and its node count
    depends on the shared memo.  No link is kept after it
    is decided.  Below the table's link shapes, the shared memo keys Betti
    numbers by the shape of each link's strong core, so a link of a new
    shape whose core is known computes no homology.

    Every prime is checked when the table is built, so a non-prime raises
    ValueError whatever the links are.
    """

    def __init__(self, code: Code, budget: Budget, primes):
        self.primes = _check_primes(primes)
        if not code.words:
            raise EmptyInput("the code has no words")
        self.code = code
        self.cx = closure(code)
        self.budget = budget
        self.memo = {}
        self.by_shape = {}
        self.vacuous_yes = None
        self.links = dict.fromkeys(sorted(facet_intersections(self.cx), key=_face_sort_key))
        self.missing = [sigma for sigma in self.links if sigma not in code.words]

    def entry(self, sigma: int) -> TriStatus:
        st = self.links[sigma]
        if st is None:
            # the link's facets, in mask order: removing sigma's bits from
            # its supersets keeps their order
            facets = tuple(f ^ sigma for f in self.cx.facets if f & sigma == sigma)
            shape = _shape(facets)
            st = self.by_shape.get(shape)
            if st is None:
                lk = link(self.cx, sigma)
                st = contractibility_status(lk, self.budget, self.memo, self.primes)
                if st.reason in _SHAPE_RUNGS:
                    self.by_shape[shape] = st
            elif st.reason == R_TREE_TEST:
                # each link owns its certificate dict; a BettiVector is frozen
                st = TriStatus(st.value, st.reason, certificate=dict(st.certificate))
            self.links[sigma] = st
        return st

    def mandatory(self) -> tuple[frozenset[int], frozenset[int]]:
        statuses = [(sigma, self.entry(sigma)) for sigma in self.links]
        found = frozenset(sigma for sigma, st in statuses if st.is_no)
        unknown = frozenset(sigma for sigma, st in statuses if st.is_unknown)
        return found, unknown

    def _over_missing(self, status) -> TriStatus:
        """``status(sigma)`` quantified over the facet intersections missing from the code.

        Yes carries ``all-links-verified`` when the code lacks some
        nonempty face of its complex, and ``nothing-to-check`` otherwise:
        a missing face that is no facet intersection has a cone link, so
        it is verified without being walked.  The Yes with no link to
        walk is worked out once per table and shared by both quantifiers.
        """
        if self.missing:
            return for_all(((sigma, status(sigma)) for sigma in self.missing), R_ALL_LINKS)
        if self.vacuous_yes is None:
            reason = R_VACUOUS if _has_every_face(self.code.words) else R_ALL_LINKS
            self.vacuous_yes = TriStatus(Verdict.YES, reason)
        return self.vacuous_yes

    def locally_good(self) -> TriStatus:
        return self._over_missing(self.entry)

    def locally_great(self) -> TriStatus:
        return self._over_missing(self._collapsibility)

    def _collapsibility(self, sigma: int) -> TriStatus:
        """Is the link of sigma collapsible?  Read off its status, with no search.

        A graph collapses exactly when it is a tree, a collapsible complex
        is acyclic, and ``inconclusive`` is the search's own No.
        """
        st = self.entry(sigma)
        if st.is_yes:
            return TriStatus(Verdict.YES, R_COLLAPSE_CERT)
        if st.reason == R_BUDGET:
            return TriStatus(Verdict.UNKNOWN, R_BUDGET)
        nodes = st.certificate["nodes_explored"] if st.reason == R_INCONCLUSIVE else 0
        return TriStatus(Verdict.NO, R_NOT_COLLAPSIBLE, certificate={"nodes_explored": nodes})


def mandatory_codewords(
    code: Code,
    budget: Budget = Budget(),
    primes=DEFAULT_PRIMES,
) -> tuple[frozenset[int], frozenset[int]]:
    """Faces every code with this complex must contain, plus the undecided ones.

    A face is mandatory when its link is not contractible.  Only facet
    intersections can be mandatory, so only they are inspected.  Returns
    (found, unknown): ``found`` are proved mandatory, ``unknown`` are the
    faces whose link contractibility the ladder could not settle.
    """
    return _LinkTable(code, budget, primes).mandatory()


def is_locally_good(
    code: Code,
    budget: Budget = Budget(),
    primes=DEFAULT_PRIMES,
) -> TriStatus:
    """Does the code contain every face that is mandatory for its complex?

    Quantifies over facet intersections missing from the code; the empty
    word never matters.  No carries the first obstructing face in
    (size, mask) order as witness, with the link's own negative
    certificate attached; no link after it is built or decided.  Yes
    carries ``all-links-verified`` when the code lacks some nonempty face
    of its complex, and ``nothing-to-check`` otherwise, the same rule as
    :func:`is_locally_great`.
    """
    return _LinkTable(code, budget, primes).locally_good()


def is_locally_great(
    code: Code,
    budget: Budget = Budget(),
) -> TriStatus:
    """Does every face missing from the code have a collapsible link?

    Quantifies over all nonempty faces of the complex outside the code,
    but walks only the facet intersections among them, in (size, mask)
    order: any other face has a cone link, which is collapsible, so no
    face of the complex is enumerated.  Each link's collapsibility is read
    off its contractibility status, whose last rung is the exhaustive
    search, so no link is searched twice.  Within budget every answer is
    Yes or No; No carries the witness face and, as ``nodes_explored``, the
    node count of the one search that decided its link in this run (0
    when a tree test or nonzero Betti numbers decided it).  Each link is
    decided as it is reached, and the walk stops at the first No.
    Yes carries ``all-links-verified`` when the code lacks some nonempty
    face of its complex, and ``nothing-to-check`` otherwise; the code has
    every such face exactly when, for each word, every nonempty face one
    label smaller is a word too.
    """
    return _LinkTable(code, budget, DEFAULT_PRIMES).locally_great()


def cone_minus_apex(cx: SimplicialComplex) -> Code:
    """The code of all nonempty cone faces except the bare apex.

    Coning a complex and then dropping the apex singleton leaves exactly
    one missing face, the apex itself, whose link is the original complex.
    This packages any contractibility question as a code classification
    question, which is the engine behind the undecidability reduction for
    local goodness.
    """
    if cx.is_void:
        raise VoidComplex("cone_minus_apex needs a nonvoid complex")
    apex = cx.ambient_n + 1
    if apex > 64:
        raise LabelOutOfRange("no fresh label available below the 64-vertex limit")
    coned = cone(cx, apex)
    apex_mask = 1 << (apex - 1)
    words = frozenset(f for f in coned.faces() if f and f != apex_mask)
    return Code(apex, words)


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the classifier decides about one code."""

    code: Code
    sparsity: int
    max_intersection_complete: bool
    locally_good: TriStatus
    locally_great: TriStatus
    mandatory_found: frozenset[int]
    mandatory_unknown: frozenset[int]
    implication_notes: str


def classify(
    code: Code,
    budget: Budget = Budget(),
    primes=DEFAULT_PRIMES,
) -> AnalysisReport:
    """Run the full battery on one code from one link table and one memo."""
    table = _LinkTable(code, budget, primes)
    # Deciding every link first, in (size, mask) order, fixes the order in
    # which the searches fill the shared memo, whatever the quantifiers read.
    found, unknown = table.mandatory()
    good = table.locally_good()
    great = table.locally_great()
    if great.is_yes and good.is_unknown:
        raise InternalInconsistency(
            "locally great was proved but locally good stayed unknown"
        )
    if good.is_no and great.is_yes:
        raise InternalInconsistency(
            f"locally good failed at witness {face_label(good.witness, code.ambient_n)} "
            "yet locally great was proved"
        )
    sparsity = max((w.bit_count() for w in code.words), default=0)
    return AnalysisReport(
        code=code,
        sparsity=sparsity,
        max_intersection_complete=not table.missing,
        locally_good=good,
        locally_great=great,
        mandatory_found=found,
        mandatory_unknown=unknown,
        implication_notes=IMPLICATION_NOTES,
    )
