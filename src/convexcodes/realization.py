"""Exact combinatorial audit of the canonical open realization of a code.

A code on n labels is always realizable by open sets inside an
(n-1)-simplex: carve the simplex into regions along its facet hyperplanes,
hand each codeword its region, and let the set for label i be the interior
of the union of regions for codewords containing i.  This module checks
that construction without any coordinates.  The arrangement is finite, so
every geometric question reduces to sign bookkeeping over cells (P, Z):
the locus where coordinates indexed by P are positive, by Z are zero, and
the rest negative.

Two facts are settled exactly.  The realized code read off the cells is
the input code minus the empty word: a one-line lemma (below) shows it,
so reading it back checks nothing that could fail.  And each nonempty
intersection of the cover sets is contractible exactly when the order
complex of the codewords above the intersection's label set is, which is
decided here.  The closed-set variant of the construction is also
provided because it is wrong in an instructive way: it can grow extra
codewords.

Each cover intersection is decided by one rule.  Call the codewords
containing a label set tau its up-set, the AND of the up-set its meet and
the OR its join.  The meet contains tau and has the same up-set, so the
region depends on tau only through the meet.  When the meet is a codeword
it is the least element of the up-set; when the join is a codeword it is
the greatest.  Either way that codeword lies on every maximal chain, so
the order complex is a cone and the region is contractible without
building anything.  Only an up-set with neither a least nor a greatest
codeword goes to its order complex, with cover relations read off bit
masks of each codeword's up- and down-sets.  The good-cover check reads
every face's meet and join from one table, filled in a single pass over
the subsets of each codeword, and walks the table's own keys as the
faces.  A face whose meet was seen at an earlier face is skipped; at a
meet's first face, a cone meet is passed over with nothing built, and
only a meet that is not a cone is decided, once.  A cell of the open
realization yields a word only when its positive part is a codeword, and
that word is the positive part, so the realized code is read off one
chamber per codeword and is the code's nonzero words by construction;
only the closed realization walks every cell.  A cell is never an
object, just a ``(positive, zero)`` pair of int masks.
"""

from __future__ import annotations

from functools import partial, reduce
from operator import and_, or_

from .analysis import contractibility_status
from .collapse import Budget
from .complexes import (
    MAX_FACE_ENUMERATION,
    MAX_VERTICES,
    Code,
    check_face_enumeration,
    closure,
    face_label,
    order_complex,
)
from .errors import EmptyInput, EmptyRegion, TooLarge
from .homology import DEFAULT_PRIMES, _check_primes
from .verdicts import R_ALL_REGIONS, R_CONE_APEX, R_VACUOUS, TriStatus, Verdict, for_all

MAX_CELL_AMBIENT = 12


def _cone_apex(words: frozenset[int], meet: int, join: int) -> int | None:
    """The cone rule for an up-set with this meet (AND) and join (OR).

    A meet that is a codeword is the up-set's least element, a join that
    is a codeword its greatest; either lies on every maximal chain, so the
    order complex is a cone over it.  Gives that codeword, the meet first,
    or None when neither is a codeword.
    """
    if meet in words:
        return meet
    if join in words:
        return join
    return None


def _meet_table(words: frozenset[int]) -> tuple[dict[int, int], dict[int, int]]:
    """The meet and the join of the up-set of every nonempty face below some codeword.

    One pass over the nonempty subsets of each word ANDs the word into
    the meet of each subset and ORs it into the join, so the tables cost
    the sum of 2^|w| over the words.  Both have the same keys: the
    nonempty faces of the code's closure.
    """
    meets: dict[int, int] = {}
    joins: dict[int, int] = {}
    for w in words:
        sub = w
        while sub:
            meets[sub] = meets.get(sub, w) & w
            joins[sub] = joins.get(sub, 0) | w
            sub = (sub - 1) & w
    return meets, joins


def v_region_contractibility(
    code: Code,
    tau: int,
    budget: Budget = Budget(),
    memo: dict | None = None,
    primes=DEFAULT_PRIMES,
) -> TriStatus:
    """Is the cover-set intersection over tau contractible?

    The intersection deformation retracts to the order complex of the
    codewords containing tau, its up-set, so the question is settled
    there, exactly.  When the meet of the up-set (the AND of its
    codewords) is a codeword, it is the least element of the up-set; when
    the join (the OR) is a codeword, it is the greatest.  Either way the
    order complex is a cone over it: the answer is Yes with reason
    ``cone-apex`` and that codeword as certificate, the meet first, and
    no complex is built.  Otherwise the order complex is built and
    decided.  Raises TooLarge, before building it, when an up-set with
    neither a least nor a greatest codeword has more codewords than the
    complex has room for as vertices.  Like :func:`contractibility_status`,
    it checks a prime only when it computes Betti numbers over it: it runs
    once per region, and ``good_cover_check`` checks its primes up front.
    """
    if tau == 0:
        raise EmptyInput("tau must be a nonempty face")
    pieces = [w for w in code.words if tau & ~w == 0]
    if not pieces:
        raise EmptyRegion(f"no codeword contains {face_label(tau, code.ambient_n)}")
    apex = _cone_apex(code.words, reduce(and_, pieces), reduce(or_, pieces))
    if apex is not None:
        return TriStatus(Verdict.YES, R_CONE_APEX, certificate=apex)
    if len(pieces) > MAX_VERTICES:
        raise TooLarge(
            f"{len(pieces)} codewords contain the face "
            f"{face_label(tau, code.ambient_n)}, more than the {MAX_VERTICES} "
            "vertices its order complex may have"
        )
    return contractibility_status(order_complex(pieces), budget, memo, primes)


def _walk_cells(n: int, visit) -> list:
    """Call ``visit(positive, zero)`` on every cell of an n-label arrangement.

    n is a code's ``ambient_n``, which :class:`Code` keeps at 1 or more.
    Returns the truthy results in (|zero|, positive, zero) order: the
    walk runs through positive parts, then zero parts, in ascending
    order, and the results are kept in one bucket per zero-part size.
    The closed realization is its one caller.
    """
    if n > MAX_CELL_AMBIENT:
        raise TooLarge(f"cell enumeration is capped at {MAX_CELL_AMBIENT} labels")
    full = (1 << n) - 1
    by_zero_size = [[] for _ in range(n)]
    for pos in range(1, full + 1):
        rest = full ^ pos
        z = 0
        while True:
            if r := visit(pos, z):
                by_zero_size[z.bit_count()].append(r)
            z = (z - rest) & rest  # the next subset of rest, ascending
            if not z:
                break
    return [r for rs in by_zero_size for r in rs]


def _open_word(words: frozenset[int], pos: int, zero: int) -> int:
    """The labels whose open sets contain the cell: its whole positive part or none.

    The cell is covered only when every adjacent chamber, one per subset
    S of the zero part, belongs to the cover, that is when every pos | S
    is a codeword.
    """
    sub = zero
    while True:
        if (pos | sub) not in words:
            return 0
        if sub == 0:
            return pos
        sub = (sub - 1) & zero


def _closed_word(words: frozenset[int], pos: int, zero: int) -> int:
    """The labels whose closed sets meet the cell: the OR of every codeword pos | S.

    One adjacent chamber in the cover suffices, which is what lets
    spurious codewords appear.
    """
    word = 0
    sub = zero
    while True:
        tau = pos | sub
        if tau in words:
            word |= tau
        if sub == 0:
            return word
        sub = (sub - 1) & zero


def realized_code_from_U(code: Code) -> Code:
    """Read the code back off the open realization, one chamber per codeword.

    The result is the code's nonzero words, by a one-line lemma: a cell
    (P, Z) yields P when P | S is a codeword for every S inside Z, and
    nothing otherwise, so it yields a word only if P itself (S = {}) is a
    codeword, and that word is P, which P's own chamber (P, {}) gives.
    Each nonzero codeword's chamber is read, in ascending order, and no
    other cell; a walk of every cell meets the chambers first, in that
    order, so the words come out as it gives them.
    """
    if not code.words:
        raise EmptyInput("the code has no words")
    found = (_open_word(code.words, pos, 0) for pos in sorted(code.nonempty_words()))
    return Code(code.ambient_n, frozenset(filter(None, found)))


def realized_code_from_closures(code: Code) -> Code:
    """Read the code off the closed realization, cell by cell; can exceed the input."""
    if not code.words:
        raise EmptyInput("the code has no words")
    n = code.ambient_n
    return Code(n, frozenset(_walk_cells(n, partial(_closed_word, code.words))))


def good_cover_check(
    code: Code,
    budget: Budget = Budget(),
    primes=DEFAULT_PRIMES,
) -> TriStatus:
    """Is the canonical open realization a good cover?

    Walks every nonempty label set contained in some codeword, in (size,
    mask) order, and checks the contractibility of its cover intersection.
    Yes means the code is realized by a good cover; No carries the
    offending label set.  A label set has the same codewords above it as
    their meet (their AND), so label sets with the same meet share one
    verdict.  Every meet and join (OR) comes from one table, filled by a
    single pass over the subsets of each codeword, and the table's keys
    are the label sets walked.  A label set whose meet was seen before is
    skipped.  At a meet's first label set, a meet or a join that is a
    codeword is a cone apex, read off the table, and the region is
    contractible with no status built for it; any other meet is decided
    by :func:`v_region_contractibility` there, once.  Yes carries
    ``all-regions-verified`` when there is a nonempty label set to walk,
    even if every region is a cone, and ``nothing-to-check`` when the
    code has no nonzero word.  All regions share one search memo.  The
    walk is refused with TooLarge, like any face enumeration, when the
    facets have more than 2^20 subsets in all.  Every prime is checked
    first, so a non-prime raises ValueError even when no region reaches
    homology.
    """
    primes = _check_primes(primes)
    if not code.words:
        raise EmptyInput("the code has no words")
    words = code.words
    # refuse a wide word before the table could hold 2^|w| entries; every
    # facet is a word, so only words over the cap need the closure
    if sum(1 << w.bit_count() for w in words) > MAX_FACE_ENUMERATION:
        check_face_enumeration(closure(code).facets)
    meets, joins = _meet_table(words)
    if not meets:
        return TriStatus(Verdict.YES, R_VACUOUS)
    memo = {}

    def undecided():
        seen = set()
        for tau in sorted(sorted(meets), key=int.bit_count):
            meet = meets[tau]
            if meet not in seen:
                seen.add(meet)
                if _cone_apex(words, meet, joins[tau]) is None:
                    yield tau, v_region_contractibility(code, tau, budget, memo, primes)

    return for_all(undecided(), R_ALL_REGIONS)
