"""Reduced simplicial homology over small prime fields.

All arithmetic is exact: entries are small nonnegative integers below p
and ranks come from Gaussian elimination mod p, so a zero Betti number is
a proof, not a numerical accident.  The augmented chain complex is used
throughout (the empty face generates degree -1), which folds the usual
connectedness correction into the rank bookkeeping: reduced Betti 0 is the
component count minus one with no special casing.

Boundary matrices are sparse and stored by column, in plain Python: over
F_2 a column is an int whose set bits are its nonzero rows, and ranks come
from an XOR basis keyed by each column's leading bit; over odd primes a
column is a ``{row: entry}`` dict, eliminated against sparse pivot columns.

Face order is pinned for reproducibility: within each dimension, masks
ascend, and dimensions ascend across the complex.

``reduced_betti`` builds its matrices on the strong-collapse core of the
complex, not on the complex itself.  A vertex v is dominated when the
meet (intersection) of the facets containing v holds a vertex other than
v; deleting v leaves the maximal sets among the facets with v removed.
Deleting dominated vertices until none is left gives the core.  Each
deletion is a strong collapse, which is a sequence of elementary
collapses (Barmak and Minian, "Strong homotopy types, nerves and
collapses", DCG 2012), so the core has the homotopy type, and every
reduced Betti number over every field, of the complex.  A core that is a
single vertex has all-zero Betti numbers and needs no matrix; the
contractibility ladder never asks for them, since it writes the strong
collapses out as elementary ones and gives them as a collapse
certificate.  A core whose facets are the v sets of v - 1 vertices on a
v-vertex support (v >= 2) is the boundary of a (v - 1)-simplex, a
(v - 2)-sphere, and needs no matrix either: its reduced Betti number is 1
in degree v - 2 and 0 in every other degree, over every field.  It is
its own core, since the meet of the v - 1 facets at a vertex is that
vertex alone, so every complex that strong-collapses onto one gets the
closed form.  No face is enumerated for it, so the 2^20 face cap never
refuses one.  The core's dimension can be smaller, so its Betti vector
is padded with zeros up to the complex's dimension.

``_strong_core`` is the package's only scan for dominated vertices, and
it records each deletion, which the ladder replays as elementary
collapses.  A core is its own core, so a caller that wants several
primes builds the core once and reads each prime's vector, padded to the
complex's dimension, from ``_betti_vectors``: ``is_acyclic``, the
``homology`` command and the ladder all do.  The ladder's memo keys them
by the core's shape, so within one ``classify`` the Betti numbers are
computed once per core shape and prime, and links of different shapes
with one core share them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_

from .complexes import SimplicialComplex, _shape
from .errors import DimensionOutOfRange, VoidComplex

DEFAULT_PRIMES = (2, 3, 5)


@dataclass(frozen=True)
class BettiVector:
    """Reduced Betti numbers beta~_0..beta~_dim over one prime field."""

    field_characteristic: int
    betti: tuple[int, ...]

    def is_zero(self) -> bool:
        return not any(self.betti)


@dataclass(frozen=True)
class BoundaryMatrix:
    """A boundary map over F_p, stored column by column.

    Column j is the boundary of the j-th k-face.  For p = 2 it is an int
    whose bit i is set when row i holds a 1; for odd p it is a dict from
    row index to the row's nonzero entry in 1..p-1.  ``shape`` is
    (rows, columns) and ``tolist`` gives the dense rows.
    """

    shape: tuple[int, int]
    p: int
    columns: tuple

    def tolist(self) -> list[list[int]]:
        nrows, ncols = self.shape
        dense = [[0] * ncols for _ in range(nrows)]
        for j, col in enumerate(self.columns):
            if self.p == 2:
                col = {i: 1 for i in range(col.bit_length()) if col >> i & 1}
            for i, entry in col.items():
                dense[i][j] = entry
        return dense


# Miller-Rabin with the first 13 primes as bases has no false positive
# below _MAX_PRIME (psi_13, Sorenson and Webster, Math. Comp. 2017).  Trial
# division by the same primes settles every p below 43 * 43 on its own.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MAX_PRIME = 3_317_044_064_679_887_385_961_981


def _check_prime(p: int) -> None:
    """Raise ValueError unless p is an int and a prime below ``_MAX_PRIME``.

    A float such as 3.0 would pass the primality test and then fail
    inside modular arithmetic, so it is refused here.
    """
    if not isinstance(p, int):
        raise ValueError(f"field characteristic {p!r} is not an integer")
    if p >= _MAX_PRIME:
        raise ValueError(f"field characteristic {p} exceeds the supported bound {_MAX_PRIME}")
    if not _is_prime(p):
        raise ValueError(f"field characteristic {p} is not prime")


def _check_primes(primes) -> tuple[int, ...]:
    """``primes`` as a tuple, once ``_check_prime`` has passed each of them."""
    primes = tuple(primes)
    for p in primes:
        _check_prime(p)
    return primes


def _is_prime(p: int) -> bool:
    """Deterministic primality for p below ``_MAX_PRIME``."""
    if p < 2:
        return False
    for q in _WITNESSES:
        if p % q == 0:
            return p == q
    if p < 43 * 43:
        return True
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def boundary_matrix(cx: SimplicialComplex, k: int, p: int) -> BoundaryMatrix:
    """Mod-p boundary map from k-chains to (k-1)-chains, as sparse columns.

    Rows are the (k-1)-faces and columns the k-faces, each sorted by mask
    value; for k = 0 the single row is the empty face and the map is the
    augmentation.  Signs alternate along each face's ascending vertex list.
    Returns a :class:`BoundaryMatrix`; earlier releases returned a dense
    integer array, whose entries ``tolist()`` still reproduces.
    """
    _check_prime(p)
    dim = cx.dimension()
    if not 0 <= k <= dim:
        raise DimensionOutOfRange(f"k={k} outside 0..{dim}")
    rows = cx.faces_of_dim(k - 1)
    cols = cx.faces_of_dim(k)
    columns = []
    if p == 2:
        row_bit = {f: 1 << i for i, f in enumerate(rows)}
        for face in cols:
            col = 0
            rest = face
            while rest:
                low = rest & -rest
                col |= row_bit[face ^ low]
                rest ^= low
            columns.append(col)
    else:
        row_index = {f: i for i, f in enumerate(rows)}
        for face in cols:
            col = {}
            entry = 1
            rest = face
            while rest:
                low = rest & -rest
                col[row_index[face ^ low]] = entry
                entry = p - entry
                rest ^= low
            columns.append(col)
    return BoundaryMatrix((len(rows), len(cols)), p, tuple(columns))


def rank_mod_p(mat: BoundaryMatrix) -> int:
    """Rank over the matrix's field F_p by exact elimination of the sparse columns.

    Over F_2 each column is reduced against an XOR basis keyed by leading
    bit; over odd p, against pivot columns keyed by their largest row and
    scaled to a pivot entry of 1.
    """
    p = mat.p
    _check_prime(p)
    if p == 2:
        basis: dict[int, int] = {}
        for col in mat.columns:
            while col:
                top = col.bit_length() - 1
                pivot = basis.get(top)
                if pivot is None:
                    basis[top] = col
                    break
                col ^= pivot
        return len(basis)
    pivots: dict[int, dict[int, int]] = {}
    for col in mat.columns:
        col = dict(col)
        while col:
            top = max(col)
            pivot = pivots.get(top)
            if pivot is None:
                inv = pow(col[top], p - 2, p)
                pivots[top] = {i: x * inv % p for i, x in col.items()}
                break
            c = col[top]
            for i, x in pivot.items():
                y = (col.get(i, 0) - c * x) % p
                if y:
                    col[i] = y
                else:
                    del col[i]
    return len(pivots)


def _strong_core(cx: SimplicialComplex) -> tuple[SimplicialComplex, tuple]:
    """The complex left after deleting dominated vertices, and the deletions made.

    Vertex v is dominated when the meet of the facets containing v holds
    another vertex.  Deleting v keeps every facet without v, and ``f - v``
    for each facet f with v unless a facet without v contains it (two
    facets with v cannot, being incomparable).  The lowest dominated v is
    deleted, then the scan starts again from the lowest vertex.  Each
    deletion is recorded as ``(v, w)``, with w the lowest other vertex of
    v's meet, which ``collapse._strong_collapse_steps`` replays as strict
    steps.  A complex with no dominated vertex is returned as it is, with
    no deletion, so a core's face cache serves every prime.
    """
    facets = cx.facets
    deletions = []
    support = rest = reduce(or_, facets, 0)
    while rest:
        v = rest & -rest
        rest ^= v
        meet = -1
        for f in facets:
            if f & v:
                meet &= f
        if meet != v:
            keep = [g for g in facets if not g & v]
            facets = keep + [
                f ^ v for f in facets
                if f & v and not any((f ^ v) & ~g == 0 for g in keep)
            ]
            deletions.append((v, (meet ^ v) & -(meet ^ v)))
            rest = support = support ^ v
    if not deletions:
        return cx, ()
    return SimplicialComplex(cx.ambient_n, tuple(sorted(facets))), tuple(deletions)


def _padded(bv: BettiVector, dim: int) -> BettiVector:
    """``bv`` with zeros appended up to ``dim + 1`` entries.

    A complex of dimension ``dim`` and its strong core have the same
    Betti numbers, but the core's vector can be shorter.
    """
    missing = dim + 1 - len(bv.betti)
    if missing <= 0:
        return bv
    return BettiVector(bv.field_characteristic, bv.betti + (0,) * missing)


# Tag of the Betti entries in a memo shared with the collapse search,
# whose keys are (mode, state) pairs, never 3-tuples, so they cannot collide.
_BETTI = "betti"


def _betti_vectors(core: SimplicialComplex, dim: int, primes, memo=None):
    """Yield the reduced Betti vector of ``core`` over each prime, padded to ``dim``.

    ``dim`` is the dimension of the complex ``core`` came from.  A vector is
    computed only when reached.  ``memo`` keeps the core's own vectors
    under ``("betti", p, shape)``, with ``shape`` the core's facets
    relabelled to bits 0..k-1 in order, so cores of one shape share them.
    """
    memo = {} if memo is None else memo
    shape = _shape(core.facets)
    for p in primes:
        key = (_BETTI, p, shape)
        bv = memo.get(key)
        if bv is None:
            bv = memo[key] = reduced_betti(core, p)
        yield _padded(bv, dim)


def reduced_betti(cx: SimplicialComplex, p: int) -> BettiVector:
    """Reduced Betti numbers of a nonvoid complex over F_p.

    The ranks are taken on the strong-collapse core of ``cx``: dominated
    vertices, those whose facets all share some other vertex, are deleted
    until none is left.  A strong collapse is a sequence of elementary
    collapses, so the core has the Betti numbers of ``cx`` over every
    field, and a core that is a single vertex needs no matrix at all.
    Nor does a hollow simplex, a core whose facets are all v of the
    (v - 1)-subsets of its v vertices: it is a (v - 2)-sphere, its own
    core, with reduced Betti number 1 in degree v - 2 and 0 elsewhere over
    every field.  It enumerates no face, so the 2^20 face cap does not
    refuse it, however many vertices it has.  The core's vector is padded
    with zeros to ``cx.dimension() + 1`` entries, the length the complex
    itself gives.  Given a core, it gives the core's own vector after one
    pass that finds no dominated vertex.
    """
    if cx.is_void:
        raise VoidComplex("homology of the void complex is undefined")
    _check_prime(p)
    dim = cx.dimension()
    if dim < 0:
        return BettiVector(p, ())
    core = _strong_core(cx)[0]
    if len(core.facets) == 1 and core.facets[0].bit_count() == 1:
        return BettiVector(p, (0,) * (dim + 1))
    v = len(core.facets)
    if (v >= 2 and all(f.bit_count() == v - 1 for f in core.facets)
            and reduce(or_, core.facets).bit_count() == v):
        return BettiVector(p, (0,) * (v - 2) + (1,) + (0,) * (dim + 2 - v))
    core_dim = core.dimension()
    counts = core.f_vector()
    ranks = [rank_mod_p(boundary_matrix(core, k, p)) for k in range(core_dim + 1)]
    ranks.append(0)
    betti = tuple(counts[k] - ranks[k] - ranks[k + 1] for k in range(core_dim + 1))
    return _padded(BettiVector(p, betti), dim)


def is_acyclic(cx: SimplicialComplex, primes=DEFAULT_PRIMES) -> bool:
    """True when every reduced Betti number vanishes over each given prime.

    Acyclicity over a handful of primes is evidence, not proof, of
    contractibility; callers treat a True here as grounds for Unknown,
    never for Yes.  The empty-face complex is not acyclic: in the
    augmented chain complex its empty face is a cycle that bounds nothing,
    so its reduced Betti number in degree -1 is 1, though the vector
    ``reduced_betti`` gives it, which starts at degree 0, is empty.  The
    strong core is built once and shared by every prime.  Every prime is
    checked first, so a non-prime raises ValueError even when an earlier
    prime already settles the answer.
    """
    primes = _check_primes(primes)
    if cx.is_void:
        raise VoidComplex("homology of the void complex is undefined")
    if cx.dimension() < 0:
        return False
    vectors = _betti_vectors(_strong_core(cx)[0], cx.dimension(), primes)
    return all(bv.is_zero() for bv in vectors)
