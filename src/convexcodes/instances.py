"""Built-in example codes and complexes.

Everything the tests and the CLI generator need ships here: the small
hand-sized codes with known classifications, a dunce-hat triangulation
(contractible but with no legal collapse step at all), the 6-vertex
projective plane, and seeded enumerators for exhaustive and randomized
sweeps.  All generators are deterministic.
"""

from __future__ import annotations

import random
from typing import Iterator

from .complexes import Code, SimplicialComplex, face_of, _sorted_faces
from .errors import TooLarge


def _code(n: int, labels: list[str], empty: bool = False) -> Code:
    words = {face_of([int(ch) for ch in s]) for s in labels}
    if empty:
        words.add(0)
    return Code(n, frozenset(words))


def intro_code() -> Code:
    """Four-label convex code: two triangles glued along the edge 23."""
    return _code(4, ["123", "234", "12", "23", "13", "24", "34", "1", "2", "3", "4"])


def counterexample_code() -> Code:
    """Five-label code that is locally good and locally great yet not max
    intersection complete (``classify`` reports
    ``max_intersection_complete`` False: the word 1 is forced but absent)."""
    return _code(5, ["2345", "123", "134", "145", "13", "14", "23", "34", "45", "3", "4"])


def connected_not_goodcover_code() -> Code:
    """Connected code failing local goodness: the link of 4 is a circle."""
    return _code(4, ["124", "134", "234", "14", "24", "34"])


def two_edge_overlap_code() -> Code:
    """Three intervals on a line: 1 meets 2, 2 meets 3, no triple point."""
    return _code(3, ["123", "12", "23", "1", "2"])


def broken_line_code() -> Code:
    """Smallest code failing local goodness: the pieces of set 3 can't touch."""
    return _code(3, ["13", "23", "1"])


def naive_closure_trap_code() -> Code:
    """Code whose closed-set realization grows the extra word 123."""
    return _code(3, ["1", "12", "13"])


def c_n(n: int) -> Code:
    """All proper subsets of the label set, the empty word included."""
    if not 1 <= n <= 16:
        raise TooLarge(f"c_n takes 1 to 16 labels, not {n}")
    full = (1 << n) - 1
    return Code(n, frozenset(range(full)))


def dunce_hat() -> SimplicialComplex:
    """An 8-vertex dunce hat: contractible, acyclic, zero free pairs.

    Triangle disc with boundary glued a-a-a in the same direction.  Every
    edge lies in at least two triangles and every vertex in at least two
    facets, so no elementary collapse ever applies.
    """
    labels = [
        "124", "234", "135", "125", "236", "136", "137", "237", "128",
        "345", "256", "167", "278", "148", "456", "467", "478",
    ]
    return SimplicialComplex.from_facets(
        8, [face_of([int(ch) for ch in s]) for s in labels]
    )


def rp2() -> SimplicialComplex:
    """The 6-vertex triangulation of the real projective plane."""
    labels = [
        "125", "126", "134", "135", "146", "234", "236", "245", "356", "456",
    ]
    return SimplicialComplex.from_facets(
        6, [face_of([int(ch) for ch in s]) for s in labels]
    )


def nonempty_words(n: int) -> list[int]:
    """All nonempty words on n labels in (size, mask) order."""
    return _sorted_faces(range(1, 1 << n))


def all_codes(n: int) -> Iterator[Code]:
    """Every code with at least one nonempty word, deterministically.

    2^(2^n - 1) - 1 codes, so keep n at 3 (127 codes) or lower unless you
    mean it.
    """
    if n > 4:
        raise TooLarge("exhaustive code sweeps stop at 4 labels")
    words = nonempty_words(n)
    for pick in range(1, 1 << len(words)):
        chosen = frozenset(w for j, w in enumerate(words) if pick >> j & 1)
        yield Code(n, chosen)


def random_code(n: int, seed: int, empty_word_rate: float = 0.25) -> Code:
    """Seeded uniform nonempty subset of the nonempty words."""
    rng = random.Random(seed)
    words = nonempty_words(n)
    pick = rng.randrange(1, 1 << len(words))
    chosen = {w for j, w in enumerate(words) if pick >> j & 1}
    if rng.random() < empty_word_rate:
        chosen.add(0)
    return Code(n, frozenset(chosen))


def all_facet_antichains(n: int) -> Iterator[SimplicialComplex]:
    """Every nonvoid complex on at most n labels, as a facet antichain.

    Brute-force filter over subsets of the nonempty faces; fine for n <= 4
    (167 antichains there, counting the empty-face complex).
    """
    if n > 4:
        raise TooLarge("antichain enumeration stops at 4 labels")
    faces = nonempty_words(n)
    m = len(faces)
    yield SimplicialComplex.from_facets(n, [0])
    for pick in range(1, 1 << m):
        chosen = [faces[j] for j in range(m) if pick >> j & 1]
        ok = True
        for i, a in enumerate(chosen):
            for b in chosen[i + 1 :]:
                if a & ~b == 0 or b & ~a == 0:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield SimplicialComplex.from_facets(n, chosen)


def random_complex(n: int, seed: int, max_facets: int = 6) -> SimplicialComplex:
    """Seeded random nonvoid complex: a few random faces, maximalized."""
    rng = random.Random(seed)
    count = rng.randrange(1, max_facets + 1)
    faces = [rng.randrange(1, 1 << n) for _ in range(count)]
    return SimplicialComplex.from_facets(n, faces)
