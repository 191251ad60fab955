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
masks of each codeword's up- and down-sets.  The meets are exactly the
nonempty intersections of codewords, so the good-cover check lists that
intersection closure, passes over each cone meet with nothing built, and
decides each other meet once, at the meet itself, in (size, mask) order.
A cell of the open realization yields a word only when its positive part
is a codeword, and that word is the positive part, so the realized code
is read off one chamber per codeword and is the code's nonzero words by
construction; only the closed realization walks every cell.  A cell is
never an object, just a ``(positive, zero)`` pair of int masks.
"""

from __future__ import annotations

from functools import partial, reduce
from operator import and_, or_

from .analysis import _intersections, contractibility_status
from .collapse import Budget
from .complexes import (
    MAX_VERTICES,
    Code,
    _sorted_faces,
    closure,  # nothing here calls it; perfbench/tracing.py install wraps it by name
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

    Checks the cover intersection over every nonempty label set inside a
    codeword.  Label sets with the same meet (the AND of the codewords
    above them) share one region, and the meets are the nonempty
    intersections of codewords.  A cone meet, one that is a codeword or
    whose join (the OR) is, is passed over with nothing built; each other
    is decided by :func:`v_region_contractibility` at the meet itself, in
    (size, mask) order, and No names the first meet that fails.  Yes
    carries ``all-regions-verified`` when the code has a nonzero word, else
    ``nothing-to-check``.  One search memo serves every region.  TooLarge
    refuses more than 2^20 intersections.  Every prime is checked first,
    even when no region reaches homology.
    """
    primes = _check_primes(primes)
    if not code.words:
        raise EmptyInput("the code has no words")
    words = code.words
    meets = _intersections(words)
    if not meets:
        return TriStatus(Verdict.YES, R_VACUOUS)
    regions = []
    for meet in meets.difference(words):
        join = reduce(or_, (w for w in words if meet & ~w == 0))
        if _cone_apex(words, meet, join) is None:
            regions.append(meet)
    memo = {}
    return for_all(((meet, v_region_contractibility(code, meet, budget, memo, primes))
                    for meet in _sorted_faces(regions)), R_ALL_REGIONS)
