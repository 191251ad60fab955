"""Faces, codes, and the structural complex operations."""

import random

import pytest

from convexcodes.complexes import (
    MAX_FACE_ENUMERATION,
    Code,
    SimplicialComplex,
    closure,
    cone,
    face_label,
    face_members,
    face_of,
    link,
    order_complex,
    _shape,
    _sorted_faces,
)
from convexcodes.errors import EmptyInput, LabelOutOfRange, NotAFace, TooLarge, VertexInUse
from convexcodes.instances import (
    all_codes,
    c_n,
    counterexample_code,
    random_complex,
)

from . import oracles


def F(digits):
    """Face mask from a string of digit labels, e.g. '124'."""
    return face_of(int(c) for c in digits)


def C(n, *words):
    return Code(n, frozenset(F(w) if isinstance(w, str) else w for w in words))


def test_face_roundtrip():
    assert face_of([1, 2, 4]) == 0b1011
    assert face_members(0b1011) == (1, 2, 4)
    rng = random.Random(11)
    for _ in range(200):
        members = tuple(sorted(rng.sample(range(1, 65), rng.randint(0, 10))))
        assert face_members(face_of(members)) == members


def test_sorted_faces_orders_by_size_then_mask():
    rng = random.Random(17)
    for _ in range(50):
        masks = {rng.getrandbits(rng.randint(1, 64)) for _ in range(rng.randint(0, 30))}
        assert _sorted_faces(masks) == sorted(masks, key=lambda m: (m.bit_count(), m))


def _shape_by_definition(facets):
    """Relabel each support vertex to its index in the sorted support."""
    support = sorted({v for f in facets for v in face_members(f)})
    index = {v: i for i, v in enumerate(support)}
    return tuple(sum(1 << index[v] for v in face_members(f)) for f in facets)


def test_shape_matches_its_definition():
    rng = random.Random(31)
    families = [(), (0,), (F("7"),), (face_of([64]), face_of([1, 64]), face_of([2, 63, 64]))]
    # hollow simplices on scattered supports: every facet lacks one vertex
    for k in (3, 10, 64):
        support = sorted(rng.sample(range(1, 65), k))
        families.append(tuple(sorted(face_of(support[:i] + support[i + 1:]) for i in range(k))))
    for _ in range(300):
        support = rng.sample(range(1, 65), rng.randint(1, 64))
        families.append(tuple(sorted({
            face_of(rng.sample(support, rng.randint(0, len(support))))
            for _ in range(rng.randint(1, 8))
        })))
    own_walks = lacking_walks = 0
    for facets in families:
        assert _shape(facets) == _shape_by_definition(facets), facets
        k = len({v for f in facets for v in face_members(f)})
        for f in facets:
            if 2 * f.bit_count() <= k:
                own_walks += 1
            else:
                lacking_walks += 1
    # both walks run, each many times
    assert own_walks > 100 and lacking_walks > 100


def test_face_of_rejects_bad_labels():
    for bad in ([0], [65], [-3], [1, 0]):
        with pytest.raises(LabelOutOfRange):
            face_of(bad)


def test_face_label():
    assert face_label(0b1011, 4) == "124"
    assert face_label(0) == "{}"


def test_closure_examples():
    cx = closure(C(3, "12", "23", "1", "2", "3"))
    assert cx.facets == (F("12"), F("23"))
    assert closure(Code(3, frozenset())).is_void
    assert closure(Code(3, frozenset())).dimension() == -1
    # the facets are the maximal codewords; the empty word counts only alone
    assert closure(C(4, "12", "123", "4", "23")).facets == (F("123"), F("4"))
    assert closure(Code(2, frozenset({0}))).facets == (0,)
    assert closure(C(3, 0, "1", "12", "3")).facets == (F("12"), F("3"))
    cex = closure(counterexample_code())
    assert set(cex.facets) == {F("2345"), F("123"), F("134"), F("145")}


def test_closure_membership():
    cx = closure(C(4, "124", "34"))
    faces = set(cx.faces())
    assert F("12") in faces and F("4") in faces and 0 in faces
    assert F("13") not in faces and F("234") not in faces


def test_from_facets_discards_dominated():
    cx = SimplicialComplex.from_facets(3, [F("12"), F("1"), F("123"), 0])
    assert cx.facets == (F("123"),)


def test_from_facets_matches_maximal_sets():
    rng = random.Random(5)
    for _ in range(200):
        family = [rng.randrange(1 << 6) for _ in range(rng.randrange(12))]
        cx = SimplicialComplex.from_facets(6, family)
        want = oracles.maximal_sets(oracles.to_set(f) for f in family)
        assert cx.facets == tuple(sorted(oracles.to_mask(s) for s in want))
    assert SimplicialComplex.from_facets(3, []).facets == ()
    assert SimplicialComplex.from_facets(3, [0, 0]).facets == (0,)
    assert SimplicialComplex.from_facets(3, [0, F("2")]).facets == (F("2"),)


def test_face_cache_matches_brute_force():
    complexes = [random_complex(6, seed) for seed in range(40)]
    complexes += [SimplicialComplex.void(3), SimplicialComplex(3, (0,))]
    for cx in complexes:
        faces = {oracles.to_mask(s) for s in oracles.complex_faces(cx)} if cx.facets else set()
        by_size = sorted(faces, key=lambda f: (f.bit_count(), f))
        dim = cx.dimension()
        assert list(cx.faces()) == by_size
        assert list(cx.faces()) == by_size  # a second pass reads the cache
        for k in range(-2, dim + 3):
            assert cx.faces_of_dim(k) == [f for f in by_size if f.bit_count() == k + 1]
        assert cx.f_vector() == tuple(
            sum(1 for f in faces if f.bit_count() == k + 1) for k in range(dim + 1)
        )
        # the cache is not part of the value
        fresh = SimplicialComplex(cx.ambient_n, cx.facets)
        assert cx == fresh and hash(cx) == hash(fresh) and repr(cx) == repr(fresh)


def test_void_vs_empty_face_complex():
    void = SimplicialComplex.void(2)
    empty = SimplicialComplex(2, (0,))
    assert void.is_void and not empty.is_void
    assert void != empty
    assert void.dimension() == -1 and empty.dimension() == -1
    assert list(void.faces()) == [] and list(empty.faces()) == [0]


def test_face_enumeration_cap():
    assert MAX_FACE_ENUMERATION == 1 << 20
    # c_n(16), the widest c_n instance: 16 facets of 15 vertices count
    # 2^19 subsets, and its faces are every proper subset of 16 labels
    widest = closure(c_n(16))
    assert sum(1 << f.bit_count() for f in widest.facets) == 1 << 19
    assert len(list(widest.faces())) == (1 << 16) - 1
    # one 21-vertex facet, or two 20-vertex ones, count 2^21 subsets
    wide = [SimplicialComplex(21, ((1 << 21) - 1,)),
            SimplicialComplex(21, ((1 << 20) - 1, (1 << 21) - 2))]
    for cx in wide:
        for enumerate_faces in (cx.faces, cx.f_vector, lambda: cx.faces_of_dim(0)):
            with pytest.raises(TooLarge, match=r"capped at 2\^20"):
                enumerate_faces()
    # the cap counts subsets of facets, not labels
    edge_and_point = SimplicialComplex(40, (0b11, 1 << 39))
    assert edge_and_point.f_vector() == (3, 1)


def test_downward_closure_property():
    for seed in range(40):
        cx = random_complex(6, seed)
        faces = set(cx.faces())
        assert faces == {oracles.to_mask(s) for s in oracles.complex_faces(cx)}
        for f in faces:
            sub = f
            while sub:
                sub = (sub - 1) & f
                assert sub in faces


def test_link_examples():
    cx = closure(C(4, "124", "134", "234", "14", "24", "34"))
    assert set(link(cx, F("4")).facets) == {F("12"), F("13"), F("23")}
    cex = closure(counterexample_code())
    assert link(cex, F("24")).facets == (F("35"),)
    assert set(link(cex, F("2")).facets) == {F("345"), F("13")}


def test_link_requires_member_face():
    cx = closure(C(3, "12"))
    with pytest.raises(NotAFace):
        link(cx, F("13"))
    void = SimplicialComplex.void(3)
    for sigma in range(8):
        with pytest.raises(NotAFace):
            link(void, sigma)


def test_not_a_face_message_braces_faces_on_12_labels():
    cx = SimplicialComplex.from_facets(12, [F("12"), face_of([3, 12])])
    with pytest.raises(NotAFace, match=r"^\{1,3\} is not a face"):
        link(cx, F("13"))


def test_link_facets_come_out_in_mask_order():
    for seed in range(30):
        cx = random_complex(6, seed)
        assert link(cx, 0) == cx
        for sigma in cx.faces():
            facets = link(cx, sigma).facets
            assert facets == tuple(sorted(facets)), (seed, sigma)


def test_link_matches_definition():
    for seed in range(25):
        cx = random_complex(5, seed)
        faces = list(cx.faces())
        sets = oracles.complex_faces(cx)
        for sigma in faces[:: max(1, len(faces) // 8)]:
            got = oracles.complex_faces(link(cx, sigma))
            want = oracles.link_faces(sets, oracles.to_set(sigma))
            assert got == want


def test_link_of_link_identity():
    rng = random.Random(5)
    for seed in range(30):
        cx = random_complex(6, seed)
        faces = [f for f in cx.faces() if f]
        if not faces:
            continue
        both = rng.choice(faces)
        # split a face into two disjoint halves and compose the links
        sigma = 0
        for v in face_members(both):
            if rng.random() < 0.5:
                sigma |= face_of([v])
        tau = both & ~sigma
        assert link(cx, both) == link(link(cx, tau), sigma)


def test_cone_examples():
    two_pts = closure(C(2, "1", "2"))
    assert set(cone(two_pts, 3).facets) == {F("13"), F("23")}
    tri_bdry = closure(C(3, "12", "23", "13"))
    assert set(cone(tri_bdry, 4).facets) == {F("124"), F("134"), F("234")}
    assert cone(SimplicialComplex.void(1), 1).facets == (F("1"),)


def test_cone_errors():
    cx = closure(C(3, "12"))
    with pytest.raises(VertexInUse):
        cone(cx, 2)
    with pytest.raises(LabelOutOfRange):
        cone(SimplicialComplex.from_facets(64, [1]), 65)


def test_cone_law():
    # embed in a wider ambient so the apex is fresh and equality is exact
    for seed in range(30):
        base = random_complex(6, seed)
        cx = SimplicialComplex(base.ambient_n + 1, base.facets)
        v = cx.ambient_n
        assert link(cone(cx, v), face_of([v])) == cx


def test_order_complex_examples():
    edge = order_complex({F("1"), F("12")})
    assert edge.f_vector() == (2, 1)
    bary = order_complex(range(1, 8))  # the nonempty faces of the triangle 123
    assert bary.f_vector() == (7, 12, 6)
    pts = order_complex({F("1"), F("2"), F("3")})
    assert pts.f_vector() == (3,)


def test_order_complex_errors():
    with pytest.raises(EmptyInput):
        order_complex(set())
    with pytest.raises(EmptyInput):
        order_complex({0, F("1")})


def _ladder(levels):
    """Two words per level, each holding label 1, every label of the levels
    below and one label of its own: 2^levels maximal chains."""
    words, below = [], 1
    for i in range(levels):
        a, b = 1 << 2 * i + 1, 1 << 2 * i + 2
        words += [below | a, below | b]
        below |= a | b
    return words


def test_order_complex_caps_its_maximal_chains():
    assert len(order_complex(_ladder(5)).facets) == 1 << 5
    with pytest.raises(TooLarge, match=r"capped at 2\^20 maximal chains"):
        order_complex(_ladder(21))


def test_order_complex_counts_chains():
    rng = random.Random(23)
    for seed in range(20):
        cx = random_complex(5, seed)
        faces = {f for f in cx.faces() if f}
        if not faces:
            continue
        sub = {f for f in faces if rng.random() < 0.7} or faces
        oc = order_complex(sub)
        want = oracles.count_chains_by_length({oracles.to_set(f) for f in sub})
        assert oc.f_vector() == want


def test_order_complex_matches_maximal_chains_by_definition():
    upsets = {
        frozenset(w for w in code.words if tau & ~w == 0)
        for code in all_codes(4)
        for tau in closure(code).faces()
        if tau
    }
    rng = random.Random(12)
    families = []
    for _ in range(2000):
        n = rng.choice((6, 7))
        families.append({face_of(rng.sample(range(1, n + 1), rng.randint(1, n)))
                         for _ in range(rng.randint(1, 12))})
    for faces in [*upsets, *families]:
        assert order_complex(faces) == oracles.naive_order_complex(faces), sorted(faces)


def test_order_complex_preserves_homology():
    # barycentric subdivision keeps the Betti numbers of the source complex
    from convexcodes.homology import reduced_betti

    for seed in range(12):
        cx = random_complex(5, seed)
        faces = {f for f in cx.faces() if f}
        if not faces:
            continue
        oc = order_complex(faces)
        for p in (2, 3):
            a = reduced_betti(cx, p).betti
            b = reduced_betti(oc, p).betti
            pad = max(len(a), len(b))
            assert a + (0,) * (pad - len(a)) == b + (0,) * (pad - len(b))


def test_f_vector_and_dimension():
    cx = closure(C(4, "123", "34"))
    assert cx.f_vector() == (4, 4, 1)
    assert cx.dimension() == 2
    assert len(list(cx.faces())) == 10  # 9 nonempty plus the empty face


def test_code_empty_word_tracking():
    with_empty = Code(3, frozenset({0, F("12")}))
    without = Code(3, frozenset({F("12")}))
    assert with_empty.has_empty_word and not without.has_empty_word
    assert with_empty.nonempty_words() == without.nonempty_words() == frozenset({F("12")})
    assert closure(with_empty) == closure(without)
