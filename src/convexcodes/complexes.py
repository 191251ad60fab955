"""Codes and simplicial complexes on at most 64 labeled vertices.

A face is a plain Python int used as a bit mask: bit ``i - 1`` set means
vertex ``i`` is a member, with labels running 1..n and n <= 64.  Keeping
faces one machine word wide is what makes the exponential searches in the
rest of the package feasible, so every structure here stores masks, never
vertex tuples.

Two degenerate complexes are distinct values and both occur naturally:

* the void complex has no faces at all (``facets == ()``), and
* the complex whose only face is the empty face (``facets == (0,)``).

A :class:`Code` is a set of faces called words.  Whether the empty word
belongs to a code is remembered, but it is immaterial to every verdict
computed downstream, which is why most operations quietly skip it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain
from typing import ClassVar, Iterable, Iterator, Sequence

from .errors import EmptyInput, LabelOutOfRange, NotAFace, TooLarge, VertexInUse

MAX_VERTICES = 64
# Caps listed faces (the facets' subsets, summed), intersections and
# maximal chains, so a wide input is refused, not stored.
MAX_FACE_ENUMERATION = 1 << 20

Face = int


def face_of(members: Iterable[int]) -> Face:
    """Build a face mask from an iterable of vertex labels (1-based)."""
    mask = 0
    for v in members:
        if not 1 <= v <= MAX_VERTICES:
            raise LabelOutOfRange(f"vertex label {v} outside 1..{MAX_VERTICES}")
        mask |= 1 << (v - 1)
    return mask


def face_members(mask: Face) -> tuple[int, ...]:
    """Vertex labels of a face, ascending."""
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def face_label(mask: Face, n: int = 0) -> str:
    """Render a face for humans: compact digits when labels stay below 10."""
    if mask == 0:
        return "{}"
    mem = face_members(mask)
    if mem[-1] <= 9 and n <= 9:
        return "".join(str(v) for v in mem)
    return "{" + ",".join(str(v) for v in mem) + "}"


def check_face_enumeration(facets: Iterable[Face]) -> None:
    """Raise TooLarge when the facets have more than ``MAX_FACE_ENUMERATION`` subsets.

    Subsets are counted with repeats, 2^|f| per facet f, so the check costs
    one pass over the facets and comes before any face is enumerated.
    """
    total = sum(1 << f.bit_count() for f in facets)
    if total > MAX_FACE_ENUMERATION:
        raise TooLarge(
            f"face enumeration is capped at 2^20 subsets summed over the "
            f"facets; this complex's facets have {total}"
        )


def _sorted_faces(masks: Iterable[Face]) -> list[Face]:
    """The faces in (size, mask) order, the deterministic face order used everywhere.

    A stable sort by size of the mask-sorted list, so both keys are C-level.
    """
    return sorted(sorted(masks), key=int.bit_count)


def _shape(facets: Sequence[Face]) -> tuple[Face, ...]:
    """The facets after an order-preserving relabel of the support to bits 0..k-1.

    A relabel that keeps the vertex order keeps the facets sorted, so two
    complexes have the same shape exactly when one is such a relabel of
    the other.  Support vertex v goes to bit ``(support & (v - 1)).bit_count()``,
    its rank in the support.  Each facet walks whichever is fewer, its own
    vertices, set from zero, or the support vertices it lacks, cleared from
    all ones, so each facet of a sphere link costs one step.
    """
    support = 0
    for f in facets:
        support |= f
    k = support.bit_count()
    full = (1 << k) - 1
    half = k >> 1
    shape = []
    for f in facets:
        if f.bit_count() <= half:
            g, rest = 0, f
        else:
            g, rest = full, support ^ f
        while rest:
            low = rest & -rest
            g ^= 1 << (support & (low - 1)).bit_count()
            rest ^= low
        shape.append(g)
    return tuple(shape)


def _check_ambient(n: int) -> None:
    if not 1 <= n <= MAX_VERTICES:
        raise LabelOutOfRange(f"ambient vertex count {n} outside 1..{MAX_VERTICES}")


def _check_face(mask: Face, n: int) -> None:
    if mask < 0 or mask >> n:
        raise LabelOutOfRange(
            f"face {bin(mask)} uses labels outside 1..{n}"
        )


@dataclass(frozen=True)
class Code:
    """A combinatorial code: a set of word masks on vertices 1..ambient_n.

    ``words`` may contain 0, the empty word.  Word sets are kept as a
    frozenset; use :meth:`sorted_words` when a deterministic order matters.
    """

    ambient_n: int
    words: frozenset[Face]

    def __post_init__(self):
        _check_ambient(self.ambient_n)
        for w in self.words:
            _check_face(w, self.ambient_n)

    @property
    def has_empty_word(self) -> bool:
        return 0 in self.words

    def nonempty_words(self) -> frozenset[Face]:
        return self.words - {0}

    def sorted_words(self) -> tuple[Face, ...]:
        return tuple(_sorted_faces(self.words))

    def __contains__(self, mask: Face) -> bool:
        return mask in self.words

    def __len__(self) -> int:
        return len(self.words)


@dataclass(frozen=True)
class SimplicialComplex:
    """An abstract simplicial complex stored by its facets.

    ``facets`` is the antichain of maximal faces, sorted by mask value.
    The void complex has no facets; the empty-face-only complex has the
    single facet 0.  Any face of a nonvoid complex is a subset of some
    facet, which is the membership test used throughout.
    """

    ambient_n: int
    facets: tuple[Face, ...]

    def __post_init__(self):
        _check_ambient(self.ambient_n)
        for f in self.facets:
            _check_face(f, self.ambient_n)

    @classmethod
    def from_facets(cls, n: int, candidates: Iterable[Face]) -> "SimplicialComplex":
        """Normalize an arbitrary family of faces into its maximal antichain.

        Candidates are scanned by decreasing size, so a strict superset of a
        candidate is seen before it; a candidate inside a discarded one is
        inside a kept one too, so testing against the kept faces suffices.
        """
        kept: list[Face] = []
        for f in sorted(set(candidates), key=int.bit_count, reverse=True):
            for g in kept:
                if f & ~g == 0:
                    break
            else:
                kept.append(f)
        return cls(n, tuple(sorted(kept)))

    @classmethod
    def void(cls, n: int) -> "SimplicialComplex":
        return cls(n, ())

    @property
    def is_void(self) -> bool:
        return not self.facets

    def dimension(self) -> int:
        """Largest facet size minus one; -1 for the void and empty-face complexes."""
        dim = self._dim
        if dim is None:
            dim = max(map(int.bit_count, self.facets), default=0) - 1
            object.__setattr__(self, "_dim", dim)
        return dim

    def __contains__(self, mask: Face) -> bool:
        return any(mask & ~f == 0 for f in self.facets)

    # Lazy caches, each filled at most once per instance.  They are plain
    # class attributes, not dataclass fields, so equality, hashing and repr
    # ignore them.  ``_faces`` and ``_offsets`` are filled together:
    # ``_offsets[s]`` is the index in ``_faces`` of the first face of size
    # s, for s = 0..(largest facet size + 1).
    _dim: ClassVar[int | None] = None
    _faces: ClassVar[tuple[Face, ...] | None] = None
    _offsets: ClassVar[tuple[int, ...] | None] = None

    def _all_faces(self) -> tuple[Face, ...]:
        """Every face in (size, mask) order, enumerated on first use.

        The faces are gathered once, then dealt by size into buckets in
        ascending mask order, which gives the order and the offsets in one
        pass.  Raises TooLarge, before enumerating anything, when the
        facets have more than ``MAX_FACE_ENUMERATION`` subsets counted
        with repeats.
        """
        faces = self._faces
        if faces is None:
            check_face_enumeration(self.facets)
            seen: set[Face] = set()
            for f in self.facets:
                sub = f
                while True:
                    seen.add(sub)
                    if sub == 0:
                        break
                    sub = (sub - 1) & f
            by_size: list[list[Face]] = [[] for _ in range(self.dimension() + 2)]
            for face in sorted(seen):
                by_size[face.bit_count()].append(face)
            faces = tuple(chain.from_iterable(by_size))
            object.__setattr__(self, "_faces", faces)
            object.__setattr__(self, "_offsets", (0, *accumulate(map(len, by_size))))
        return faces

    def faces(self) -> Iterator[Face]:
        """All faces, the empty face included, in (size, mask) order."""
        return iter(self._all_faces())

    def faces_of_dim(self, k: int) -> list[Face]:
        """The k-faces sorted by mask value; k = -1 names the empty face."""
        faces = self._all_faces()
        offsets = self._offsets
        if not 0 <= k + 1 < len(offsets) - 1:
            return []
        return list(faces[offsets[k + 1] : offsets[k + 2]])

    def f_vector(self) -> tuple[int, ...]:
        """Counts of faces per dimension 0..dim; the empty face is not counted."""
        self._all_faces()
        offsets = self._offsets[1:]
        return tuple(b - a for a, b in zip(offsets, offsets[1:]))


def closure(code: Code) -> SimplicialComplex:
    """Smallest simplicial complex containing every word of the code.

    Its facets are exactly the maximal words.  A code with no words gives
    the void complex; a code whose only word is the empty word gives the
    empty-face-only complex.
    """
    return SimplicialComplex.from_facets(code.ambient_n, code.words)


def link(cx: SimplicialComplex, sigma: Face) -> SimplicialComplex:
    """Faces disjoint from sigma whose union with sigma stays in the complex.

    The facets of the link are the facets containing sigma with sigma
    removed, built in one pass; removing the same bits from each keeps
    their mask order, so no sort is needed.  When no facet contains sigma,
    sigma is not a face.  The ambient vertex count is unchanged.
    """
    facets = tuple(f ^ sigma for f in cx.facets if f & sigma == sigma)
    if not facets:
        raise NotAFace(f"{face_label(sigma, cx.ambient_n)} is not a face of the complex")
    return SimplicialComplex(cx.ambient_n, facets)


def cone(cx: SimplicialComplex, apex: int) -> SimplicialComplex:
    """Join with a fresh apex vertex: every face gains an apex twin.

    The apex may be any label not appearing in the complex; the ambient
    range grows if the label lies above it.  The cone over the void
    complex is the single point at the apex, and the link of the apex
    recovers the original complex (for nonvoid input).
    """
    if not 1 <= apex <= MAX_VERTICES:
        raise LabelOutOfRange(f"apex label {apex} outside 1..{MAX_VERTICES}")
    bit = 1 << (apex - 1)
    if any(f & bit for f in cx.facets):
        raise VertexInUse(f"apex label {apex} already appears in the complex")
    n = max(cx.ambient_n, apex)
    if cx.is_void:
        return SimplicialComplex(n, (bit,))
    return SimplicialComplex(n, tuple(sorted(f | bit for f in cx.facets)))


def order_complex(faces: Iterable[Face]) -> SimplicialComplex:
    """Nerve of the inclusion order on a finite set of nonempty faces.

    The input faces become vertices 1..m, numbered by (size, mask); a set
    of vertices spans a face exactly when the corresponding input faces
    form a chain under inclusion.  The facets of the result are the
    maximal chains.  Each element's strict up- and down-sets are kept as
    bit masks over the numbering, and j covers i when j is above i and
    nothing below j is above i (``below[j] & above[i] == 0``).  Maximal
    chains are grown along covers from the minimal elements to the
    maximal ones; they are distinct and none contains another, so they
    are the facets as they stand, sorted.  TooLarge refuses more than
    ``MAX_FACE_ENUMERATION`` of them.
    """
    elems = _sorted_faces(set(faces))
    if not elems:
        raise EmptyInput("order_complex needs at least one face")
    if elems[0] == 0:
        raise EmptyInput("order_complex input faces must be nonempty")
    m = len(elems)
    if m > MAX_VERTICES:
        raise LabelOutOfRange(f"{m} input faces exceed the {MAX_VERTICES}-vertex limit")

    # a strict superset is larger, so it comes later in the numbering
    above = [0] * m
    below = [0] * m
    for i, a in enumerate(elems):
        for j in range(i + 1, m):
            if a & ~elems[j] == 0:
                above[i] |= 1 << j
                below[j] |= 1 << i
    covers = []
    for up in above:
        cov = []
        rest = up
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            if not below[j] & up:
                cov.append(j)
            rest ^= low
        covers.append(cov)

    chains: list[Face] = []
    stack = [(1 << i, i) for i in range(m) if not below[i]]
    while stack:
        mask, i = stack.pop()
        if covers[i]:
            stack.extend((mask | 1 << j, j) for j in covers[i])
        else:
            chains.append(mask)
            if len(chains) > MAX_FACE_ENUMERATION:
                raise TooLarge("an order complex is capped at 2^20 maximal chains")
    return SimplicialComplex(m, tuple(sorted(chains)))

