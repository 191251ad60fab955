"""Exact combinatorial audit of the canonical open realization of a code.

A code on n labels is always realizable by open sets inside an
(n-1)-simplex: carve the simplex into regions along its facet hyperplanes,
hand each codeword its region, and let the set for label i be the interior
of the union of regions for codewords containing i.  This module checks
that construction without any coordinates.  The arrangement is finite, so
every geometric question reduces to sign bookkeeping over cells (P, Z):
the locus where coordinates indexed by P are positive, by Z are zero, and
the rest negative.

Two facts get verified machine-exactly: the realized code read off the
cells equals the input code minus the empty word, and each nonempty
intersection of the cover sets is contractible exactly when the order
complex of the codewords above the intersection's label set is.  The
closed-set variant of the construction is also provided because it is
wrong in an instructive way: it can grow extra codewords.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .analysis import contractibility_status
from .collapse import Budget
from .complexes import MAX_VERTICES, Code, closure, face_label, order_complex
from .errors import EmptyInput, EmptyRegion, TooLarge
from .homology import DEFAULT_PRIMES
from .verdicts import R_ALL_REGIONS, TriStatus, for_all

MAX_CELL_AMBIENT = 12


@dataclass(frozen=True)
class ArrangementCell:
    """One relatively open cell of the simplex facet arrangement.

    ``positive`` is the mask of coordinates forced positive, ``zero`` the
    mask pinned to the hyperplanes.  The remaining coordinates are
    negative.  Cells with an empty positive part are empty point sets and
    never constructed; the cell's dimension is (n - 1) - |zero|.
    """

    positive: int
    zero: int

    def __post_init__(self):
        if self.positive == 0:
            raise EmptyInput("a cell needs a nonempty positive part")
        if self.positive & self.zero:
            raise EmptyInput("positive and zero parts must be disjoint")

    def dimension(self, ambient_n: int) -> int:
        return (ambient_n - 1) - self.zero.bit_count()

    def __str__(self) -> str:
        z = face_label(self.zero) if self.zero else "-"
        return f"({face_label(self.positive)}|{z})"


def v_region_contractibility(
    code: Code,
    tau: int,
    budget: Budget = Budget(),
    memo: dict | None = None,
    primes=DEFAULT_PRIMES,
) -> TriStatus:
    """Is the cover-set intersection over tau contractible?

    The intersection deformation retracts to the order complex of the
    codewords containing tau, so the question is settled there, exactly.
    Raises TooLarge, before building it, when more codewords contain tau
    than that complex has room for as vertices.
    """
    if tau == 0:
        raise EmptyInput("tau must be a nonempty face")
    pieces = frozenset(w for w in code.words if tau & ~w == 0)
    if not pieces:
        raise EmptyRegion(f"no codeword contains {face_label(tau)}")
    if len(pieces) > MAX_VERTICES:
        raise TooLarge(
            f"{len(pieces)} codewords contain the face {face_label(tau)}, more than "
            f"the {MAX_VERTICES} vertices its order complex may have"
        )
    return contractibility_status(order_complex(pieces), budget, memo, primes)


def enumerate_cells(n: int) -> Iterator[ArrangementCell]:
    """All 3^n - 2^n arrangement cells, by zero-part size then masks.

    A 1-label ambient space is a single point carrying the one cell
    ({1}, {}); the same enumeration covers it without special handling.
    """
    if n < 1:
        raise EmptyInput("need at least one label")
    if n > MAX_CELL_AMBIENT:
        raise TooLarge(f"cell enumeration is capped at {MAX_CELL_AMBIENT} labels")
    full = (1 << n) - 1
    triples = []
    for pos in range(1, full + 1):
        rest = full ^ pos
        z = rest
        while True:
            triples.append((z.bit_count(), pos, z))
            if z == 0:
                break
            z = (z - 1) & rest
    triples.sort()
    for _, pos, z in triples:
        yield ArrangementCell(pos, z)


def _interval_in_code(code: Code, cell: ArrangementCell) -> bool:
    lo, z = cell.positive, cell.zero
    sub = z
    while True:
        if (lo | sub) not in code.words:
            return False
        if sub == 0:
            return True
        sub = (sub - 1) & z


def realized_word_at(code: Code, cell: ArrangementCell) -> int:
    """Which labels' open sets contain this cell.

    The open set for label i picks up the cell only when i is positive
    there and every adjacent chamber, one per subset of the zero part,
    belongs to the cover.  So the cell realizes its full positive part or
    nothing.
    """
    return cell.positive if _interval_in_code(code, cell) else 0


def realized_word_at_closed(code: Code, cell: ArrangementCell) -> int:
    """Closed-set variant: labels whose closed set meets the cell.

    Closure only needs one adjacent chamber in the cover, which is what
    lets spurious codewords appear.
    """
    lo, z = cell.positive, cell.zero
    word = 0
    sub = z
    while True:
        tau = lo | sub
        if tau in code.words:
            word |= tau
        if sub == 0:
            return word
        sub = (sub - 1) & z


def _realized_code(code: Code, word_at) -> Code:
    """The nonzero words ``word_at(code, cell)`` gives over every cell."""
    if not code.words:
        raise EmptyInput("the code has no words")
    cells = enumerate_cells(code.ambient_n)
    return Code(code.ambient_n, frozenset(w for cell in cells if (w := word_at(code, cell))))


def realized_code_from_U(code: Code) -> Code:
    """Read the code back off the open realization, cell by cell."""
    return _realized_code(code, realized_word_at)


def realized_code_from_closures(code: Code) -> Code:
    """Read the code off the closed realization; can exceed the input."""
    return _realized_code(code, realized_word_at_closed)


def good_cover_check(
    code: Code,
    budget: Budget = Budget(),
    primes=DEFAULT_PRIMES,
) -> TriStatus:
    """Is the canonical open realization a good cover?

    Walks every nonempty label set contained in some codeword and checks
    the contractibility of its cover intersection.  Yes means the code is
    realized by a good cover; No carries the offending label set.
    """
    if not code.words:
        raise EmptyInput("the code has no words")
    cx = closure(code)
    memo = {}
    checks = (
        (tau, v_region_contractibility(code, tau, budget, memo, primes))
        for tau in cx.faces()
        if tau
    )
    return for_all(checks, R_ALL_REGIONS)
