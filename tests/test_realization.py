"""Arrangement cells, realized codes, and the good-cover verification."""

import time
from functools import reduce
from operator import and_

import pytest

from convexcodes import realization
from convexcodes.analysis import _intersections
from convexcodes.collapse import Budget
from convexcodes.complexes import Code, closure, face_of, order_complex
from convexcodes.errors import EmptyRegion, LabelOutOfRange, TooLarge
from convexcodes.instances import (
    all_codes,
    broken_line_code,
    c_n,
    counterexample_code,
    intro_code,
    naive_closure_trap_code,
    random_code,
    two_edge_overlap_code,
)
from convexcodes.realization import (
    _closed_word,
    _open_word,
    _walk_cells,
    good_cover_check,
    realized_code_from_U,
    realized_code_from_closures,
    v_region_contractibility,
)
from convexcodes.verdicts import R_ALL_REGIONS, R_CONE_APEX, R_TREE_TEST, R_VACUOUS, Verdict

from . import oracles


def F(digits):
    return face_of(int(c) for c in digits)


def words(*ws):
    return frozenset(F(w) if isinstance(w, str) else w for w in ws)


def test_v_region_examples():
    st = v_region_contractibility(two_edge_overlap_code(), F("3"))
    assert st.value is Verdict.YES
    st = v_region_contractibility(broken_line_code(), F("3"))
    assert st.value is Verdict.NO
    st = v_region_contractibility(broken_line_code(), F("23"))
    assert st.value is Verdict.YES  # single word above 23, a point
    with pytest.raises(EmptyRegion):
        v_region_contractibility(broken_line_code(), F("12"))


def test_v_region_cone_over_the_least_codeword():
    # the missing face 1 lies below 12 and 123: 12 is the least of them
    st = v_region_contractibility(Code(3, words("12", "123")), F("1"))
    assert (st.value, st.reason, st.certificate) == (Verdict.YES, R_CONE_APEX, F("12"))
    # a codeword face is its own least codeword
    st = v_region_contractibility(broken_line_code(), F("23"))
    assert (st.value, st.reason, st.certificate) == (Verdict.YES, R_CONE_APEX, F("23"))


def test_v_region_cone_under_the_greatest_codeword(monkeypatch):
    def unbuilt(faces):
        raise AssertionError("the order complex was built")

    monkeypatch.setattr(realization, "order_complex", unbuilt)
    # the missing face 1 lies below 12, 13 and 123: no least of them, 123
    # the greatest
    st = v_region_contractibility(Code(3, words("12", "13", "123")), F("1"))
    assert (st.value, st.reason, st.certificate) == (Verdict.YES, R_CONE_APEX, F("123"))
    # 65 codewords contain label 1, with no least one; the full 8-label
    # word is the greatest, so the region is a cone instead of too large
    full = F("12345678")
    above_1 = [w for w in range(2, 1 << 7) if w & 1] + [F("1345678"), full]
    code = Code(8, frozenset(above_1))
    st = v_region_contractibility(code, F("1"))
    assert (st.value, st.reason, st.certificate) == (Verdict.YES, R_CONE_APEX, full)
    st = good_cover_check(code)
    assert st.value is Verdict.YES and st.reason == R_ALL_REGIONS


def test_v_region_too_large_for_an_order_complex(monkeypatch):
    # 64 words of size 5 on 9 labels, each with label 1: an antichain, so
    # no least or greatest codeword; the order complex fits, 64 points
    antichain = [w for w in range(1 << 9) if w & 1 and w.bit_count() == 5][:64]
    st = v_region_contractibility(Code(9, frozenset(antichain)), F("1"))
    assert (st.value, st.reason) == (Verdict.NO, R_TREE_TEST)
    # the words on 7 labels that contain label 1, except the word 1, and
    # two incomparable 8-label words: 65 codewords contain label 1 with
    # neither a least nor a greatest one among them
    above_1 = [w for w in range(2, 1 << 7) if w & 1] + [F("1345678"), F("1245678")]
    with pytest.raises(TooLarge, match="65 codewords contain the face 1,"):
        v_region_contractibility(Code(8, frozenset(above_1)), F("1"))

    def unbuilt(faces):
        raise AssertionError("the order complex was built")

    monkeypatch.setattr(realization, "order_complex", unbuilt)
    # c_n(9) without the word 1: face 1 is missing from the code and 254
    # codewords contain it, the least of them being the face itself
    missing_1 = Code(9, frozenset(range(511)) - {1})
    with pytest.raises(TooLarge, match="254 codewords contain the face 1,"):
        good_cover_check(missing_1)


def test_v_region_messages_brace_faces_on_12_labels():
    # on 12 labels the face {1,2} and the label 12 must print apart
    with pytest.raises(EmptyRegion, match=r"no codeword contains \{1,2\}$"):
        v_region_contractibility(Code(12, frozenset({F("13"), face_of([2, 12])})), F("12"))
    # 12 with each nonempty subset of 3..8, and two incomparable words:
    # 65 codewords contain {1,2}, with neither a least nor a greatest one
    above_12 = [F("12") | s << 2 for s in range(1, 1 << 6)] + [F("12456789"), F("1234567") | 1 << 9]
    code = Code(12, frozenset(above_12))
    with pytest.raises(TooLarge, match=r"65 codewords contain the face \{1,2\},"):
        v_region_contractibility(code, F("12"))


def test_good_cover_check_decides_a_wide_word():
    # both meets are codewords, so no face of the 40-label word is listed
    code = Code(40, frozenset({(1 << 40) - 1, 1}))
    start = time.perf_counter()
    st = good_cover_check(code)
    assert time.perf_counter() - start < 1
    assert (st.value, st.reason) == (Verdict.YES, R_ALL_REGIONS)


def test_good_cover_check_refuses_past_either_cap():
    # the hollow simplex on 21 labels: each set of 1 to 20 of its 21 words
    # meets in a different face, 2^21 - 2 intersections in all
    full = (1 << 21) - 1
    with pytest.raises(TooLarge, match=r"intersection closure is capped at 2\^20 members"):
        good_cover_check(Code(21, frozenset(full ^ 1 << i for i in range(21))))


def test_good_cover_check_decides_each_region_at_its_meet():
    from convexcodes.analysis import is_locally_good

    # labels 1..60 in ten blocks of 6: the meet m of the words m+61 and m+62
    # is no codeword, nor is their join, and m minus any one block is a
    # word, so every face with meet m takes a label from every block; the
    # first failing meet is the block {1,...,6}, the meet of the other nine
    m = (1 << 60) - 1
    blocks = [0b111111 << 6 * i for i in range(10)]
    code = Code(62, frozenset({m | 1 << 60, m | 1 << 61, *(m & ~b for b in blocks)}))
    start = time.perf_counter()
    st = good_cover_check(code)
    assert time.perf_counter() - start < 1
    assert (st.value, st.reason, st.witness) == (Verdict.NO, R_TREE_TEST, F("123456"))
    assert is_locally_good(code).is_no
    # {123, 124}: faces 1 and 12 share the meet 12, which names the region,
    # as classify's locally-good witness does
    st = good_cover_check(Code(4, words("123", "124")))
    assert (st.value, st.reason, st.witness) == (Verdict.NO, R_TREE_TEST, F("12"))
    assert st.certificate == {"components": 2, "edges": 0, "vertices": 2}


def test_good_cover_check_builds_no_closure_under_the_cap(monkeypatch):
    from convexcodes.instances import intro_code

    def unbuilt(code):
        raise AssertionError("the closure was built")

    monkeypatch.setattr(realization, "closure", unbuilt)
    # the words of a code under the cap have at most 2^20 subsets, and so
    # do its facets, which are words
    st = good_cover_check(intro_code())
    assert st.value is Verdict.YES
    monkeypatch.undo()
    assert st == good_cover_check(intro_code())


def test_codeword_faces_are_cones_without_an_order_complex(monkeypatch):
    def unbuilt(faces):
        raise AssertionError("the order complex was built")

    monkeypatch.setattr(realization, "order_complex", unbuilt)
    # every nonempty face of c_n(8) is a codeword, the singletons with 127
    # codewords above them, more than an order complex may have
    st = good_cover_check(c_n(8))
    assert st.value is Verdict.YES and st.reason == R_ALL_REGIONS


def test_missing_faces_with_a_least_codeword_above_are_cones(monkeypatch):
    from convexcodes.analysis import is_locally_good

    # on 9 labels, every proper word that contains label 2 or omits label
    # 1: the missing face 1 has 127 codewords above it, the least being 12
    code = Code(9, frozenset(w for w in range(511) if w & 2 or not w & 1))
    above_1 = frozenset(w for w in code.words if w & 1)
    assert len(above_1) == 127 and min(above_1) == F("12")

    def guarded(faces):
        faces = frozenset(faces)
        if faces == above_1:
            raise AssertionError("the order complex of face 1 was built")
        return order_complex(faces)

    monkeypatch.setattr(realization, "order_complex", guarded)
    st = good_cover_check(code)
    assert st.value is Verdict.YES and st.reason == R_ALL_REGIONS
    assert is_locally_good(code).is_yes


def _has_least_or_greatest(upset):
    """Whether some codeword of the up-set lies below, or above, all of them."""
    return any(all(v & ~w == 0 for w in upset) or all(w & ~v == 0 for w in upset)
               for v in upset)


def test_order_complex_once_per_upset_of_a_missing_face(monkeypatch):
    built = []

    def counting(faces):
        built.append(frozenset(faces))
        return order_complex(faces)

    monkeypatch.setattr(realization, "order_complex", counting)
    for code in all_codes(3):
        built.clear()
        st = good_cover_check(code)
        missing = [t for t in closure(code).faces() if t and t not in code.words]
        upsets = {frozenset(w for w in code.words if t & ~w == 0) for t in missing}
        # an up-set with a least or a greatest codeword is a cone and
        # needs no complex
        no_cone = {u for u in upsets if not _has_least_or_greatest(u)}
        assert len(built) == len(set(built)), code
        assert set(built) <= no_cone, code
        if st.is_yes:
            assert set(built) == no_cone, code


def test_meet_table_decides_each_non_codeword_meet_once(monkeypatch):
    calls = []

    def recording(code, tau, *args):
        calls.append(tau)
        return v_region_contractibility(code, tau, *args)

    monkeypatch.setattr(realization, "v_region_contractibility", recording)
    corpus = [*all_codes(3), *(code for i, code in enumerate(all_codes(4)) if i % 8 == 0)]
    for code in corpus:
        calls.clear()
        st = good_cover_check(code)
        upsets = {}
        for tau in closure(code).faces():
            if tau:
                upset = [w for w in code.words if tau & ~w == 0]
                upsets[reduce(and_, upset)] = upset
        want = []
        for meet in sorted(upsets, key=lambda m: (m.bit_count(), m)):
            if not _has_least_or_greatest(upsets[meet]):
                want.append(meet)
            if st.is_no and meet == st.witness:
                break  # the walk stops at its first No
        assert calls == want, code
        assert repr(st) == repr(oracles.naive_good_cover(code)), code


def test_intersections_are_the_upset_meets():
    for code in _parity_corpus():
        faces = set(closure(code).faces()) - {0}
        meets = {reduce(and_, [w for w in code.words if t & ~w == 0]) for t in faces}
        assert _intersections(code.words) == meets, code


def cells(n):
    """Every (positive, zero) cell of the n-label arrangement, in walk order."""
    return _walk_cells(n, lambda p, z: (p, z))


def test_enumerate_cells_small():
    assert cells(1) == [(1, 0)]
    assert cells(2) == [(1, 0), (2, 0), (3, 0), (1, 2), (2, 1)]
    assert len(cells(3)) == 19


def test_enumerate_cells_counts():
    for n in range(1, 7):
        got = cells(n)
        assert len(got) == 3**n - 2**n
        assert len(set(got)) == len(got)
        chambers = [c for c in got if c[1] == 0]
        assert len(chambers) == 2**n - 1


def test_enumerate_cells_bounds():
    with pytest.raises(TooLarge):
        cells(13)
    with pytest.raises(TooLarge):
        realized_code_from_closures(Code(13, frozenset({1})))
    # the open realization reads one chamber per codeword and walks no cells
    wide = Code(13, frozenset({face_of([1, 2, 13]), face_of([12, 13]), face_of([13])}))
    assert realized_code_from_U(wide).words == wide.words
    # no code has fewer than one label, so no walk starts below n = 1
    with pytest.raises(LabelOutOfRange):
        Code(0, frozenset())


def test_realized_code_examples():
    code = two_edge_overlap_code()
    assert realized_code_from_U(code).words == code.words
    trap = naive_closure_trap_code()
    assert realized_code_from_U(trap).words == trap.words
    assert realized_code_from_closures(trap).words == trap.words | {F("123")}
    single = Code(4, frozenset({F("24")}))
    assert realized_code_from_U(single).words == single.words


def test_realized_word_at_cell():
    trap = naive_closure_trap_code().words  # {1, 12, 13}
    # the edge cell (1|2): interval {1, 12} all in C
    assert _open_word(trap, F("1"), F("2")) == F("1")
    # at the vertex (1|23) of the simplex the interval includes 123, which
    # is not a codeword, so the open rule yields nothing there
    assert _open_word(trap, F("1"), F("23")) == 0
    # the closed rule ORs the codewords it does meet, creating the extra
    # word 123
    assert _closed_word(trap, F("1"), F("23")) == F("123")
    assert _open_word(trap, F("12"), F("3")) == 0
    assert _closed_word(trap, F("12"), F("3")) == F("12")


def test_realization_theorem_exhaustive_small():
    for code in all_codes(3):
        assert realized_code_from_U(code).words == code.words - {0}


def test_realization_theorem_random():
    for seed in range(60):
        code = random_code(5, seed)
        assert realized_code_from_U(code).words == code.words - {0}


def test_good_cover_examples():
    st = good_cover_check(two_edge_overlap_code())
    assert st.value is Verdict.YES and st.reason == R_ALL_REGIONS
    st = good_cover_check(broken_line_code())
    assert st.value is Verdict.NO and st.witness == F("3")
    assert good_cover_check(counterexample_code()).value is Verdict.YES


def test_good_cover_yes_reasons():
    # a code with no nonempty face has nothing to check
    st = good_cover_check(Code(3, words(0)))
    assert (st.value, st.reason) == (Verdict.YES, R_VACUOUS)
    # every region is a cone, so no region is decided, yet there were faces
    st = good_cover_check(Code(3, words("1", "2")))
    assert (st.value, st.reason) == (Verdict.YES, R_ALL_REGIONS)


def test_good_cover_negative_witness_is_sound():
    hits = 0
    for seed in range(60):
        code = random_code(4, seed)
        st = good_cover_check(code)
        if st.value is not Verdict.NO:
            continue
        hits += 1
        gamma = {w for w in code.words if st.witness & ~w == 0 and w}
        assert gamma
        oc = order_complex(gamma)
        faces = oracles.complex_faces(oc)
        if st.reason == R_TREE_TEST:
            nonempty = {f for f in faces if f}
            verts = sum(1 for f in nonempty if len(f) == 1)
            edges = sum(1 for f in nonempty if len(f) == 2)
            assert oracles.component_count(faces) != 1 or edges != verts - 1
        else:
            assert any(any(oracles.reduced_betti(faces, p)) for p in (2, 3, 5))
    assert hits > 3


def test_good_cover_matches_locally_good_small():
    from convexcodes.analysis import is_locally_good

    for code in all_codes(3):
        a = is_locally_good(code)
        b = good_cover_check(code)
        assert a.value is not Verdict.UNKNOWN
        assert a.value is b.value


def _parity_corpus():
    yield from all_codes(3)
    # no nonempty face: the walk has nothing to check
    yield Code(3, frozenset({0}))
    yield Code(5, frozenset({0}))
    yield from (code for i, code in enumerate(all_codes(4)) if i % 8 == 0)
    for n in (5, 6):
        for seed in range(60):
            yield random_code(n, seed)


def test_good_cover_matches_the_per_face_reference():
    for code in _parity_corpus():
        for budget in (Budget(), Budget(nodes=3)):
            want = oracles.naive_good_cover(code, budget)
            assert repr(good_cover_check(code, budget)) == repr(want), code


def test_realized_codes_match_the_cell_by_cell_reference():
    for code in _parity_corpus():
        assert repr(realized_code_from_U(code)) == repr(oracles.naive_realized_code(code)), code
        assert (repr(realized_code_from_closures(code))
                == repr(oracles.naive_realized_code(code, closed=True))), code


def test_realized_code_reads_codeword_cells_only(monkeypatch):
    visited = []
    open_word = realization._open_word

    def recording(words, pos, zero):
        visited.append((pos, zero))
        return open_word(words, pos, zero)

    monkeypatch.setattr(realization, "_open_word", recording)
    for code in _parity_corpus():
        visited.clear()
        realized = realized_code_from_U(code)
        assert visited == [(p, 0) for p in sorted(code.words) if p], code
        assert realized.words == code.words - {0}, code


def test_realized_words_at_cells_match_the_definition():
    all_cells = cells(3)
    for code in all_codes(3):
        word_sets = {oracles.to_set(w) for w in code.words}
        for pos, zero in all_cells:
            want = oracles.naive_cell_word(word_sets, pos, zero)
            assert _open_word(code.words, pos, zero) == want
            assert (_closed_word(code.words, pos, zero)
                    == oracles.naive_cell_word(word_sets, pos, zero, closed=True))


def test_ambient_one_neuron():
    code = Code(1, frozenset({1}))
    assert realized_code_from_U(code).words == frozenset({1})
    assert good_cover_check(code).value is Verdict.YES


def test_good_cover_check_checks_its_primes_up_front():
    # every region of the intro code is a cone, so no Betti number is computed
    with pytest.raises(ValueError, match="not prime"):
        good_cover_check(intro_code(), primes=(4,))
