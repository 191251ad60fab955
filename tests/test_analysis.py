"""The classification pipeline: mandatory words, locally good, locally great."""

import random
import time
from functools import reduce
from operator import or_

import pytest

from convexcodes import analysis
from convexcodes.analysis import (
    AnalysisReport,
    classify,
    cone_minus_apex,
    contractibility_status,
    facet_intersections,
    is_locally_good,
    is_locally_great,
    mandatory_codewords,
)
from convexcodes.collapse import (
    ENGINES,
    Budget,
    CollapseOutcome,
    _strong_collapse_steps,
    certifies_collapse,
)
from convexcodes.complexes import (
    Code,
    SimplicialComplex,
    closure,
    face_members,
    face_of,
    link,
    _shape,
)
from convexcodes.errors import InternalInconsistency, TooLarge, VoidComplex
from convexcodes.homology import BettiVector, _strong_core, is_acyclic, reduced_betti
from convexcodes.instances import (
    broken_line_code,
    c_n,
    connected_not_goodcover_code,
    counterexample_code,
    dunce_hat,
    intro_code,
    random_code,
    random_complex,
    rp2,
    two_edge_overlap_code,
)
from convexcodes.verdicts import (
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
)

from . import oracles


def F(digits):
    return face_of(int(c) for c in digits)


def test_contractibility_two_isolated_vertices():
    cx = SimplicialComplex.from_facets(3, [F("1"), F("2")])
    st = contractibility_status(cx)
    assert st.value is Verdict.NO and st.reason == R_TREE_TEST


def test_contractibility_triangle_boundary():
    cx = SimplicialComplex.from_facets(3, [F("12"), F("13"), F("23")])
    st = contractibility_status(cx)
    assert st.value is Verdict.NO
    # dimension-1 complexes are decided exactly by the graph test
    assert st.reason == R_TREE_TEST
    assert st.certificate == {"vertices": 3, "edges": 3, "components": 1}


def test_contractibility_dunce_hat_unknown():
    st = contractibility_status(dunce_hat())
    assert st.value is Verdict.UNKNOWN and st.reason == R_INCONCLUSIVE
    # the search proved it not collapsible: no free face at the first node
    assert st.certificate == {"nodes_explored": 1}


def test_contractibility_nonzero_betti_needs_no_search(monkeypatch):
    from convexcodes import analysis

    def no_search(*args, **kw):
        raise AssertionError("homology decides this link before any search")

    monkeypatch.setattr(analysis, "is_collapsible", no_search)
    # boundary of a tetrahedron: a 2-sphere, no cone, reduced beta_2 = 1
    sphere = SimplicialComplex.from_facets(4, [F("123"), F("124"), F("134"), F("234")])
    st = contractibility_status(sphere)
    assert st.value is Verdict.NO and st.reason == R_NONZERO_BETTI


def test_classify_random_code_8_1_is_fast():
    # its links are decided by homology in milliseconds, where an
    # exhaustive search ahead of homology took minutes
    start = time.perf_counter()
    rep = classify(random_code(8, 1))
    assert time.perf_counter() - start < 10.0
    assert rep.locally_good.value is Verdict.NO and rep.locally_good.witness == 1
    great = rep.locally_great
    assert great.value is Verdict.NO and great.reason == R_NOT_COLLAPSIBLE
    assert great.witness == 1


def searched_complex():
    """Facets 124 1345 246 346 156 2356: its own strong core, acyclic and no
    cone, so only the search decides it; it collapses in 17 nodes."""
    return random_complex(6, 749, max_facets=8)


def test_contractibility_budget_exhaustion():
    # contractible, but neither a cone, nor a point after strong collapses,
    # nor decidable inside a one-node search budget
    cx = searched_complex()
    tight = contractibility_status(cx, budget=Budget(nodes=1, greedy_restarts=0))
    assert tight.value is Verdict.UNKNOWN and tight.reason == R_BUDGET
    assert tight.certificate == {"nodes_explored": 1}
    st = contractibility_status(cx)
    assert st.value is Verdict.YES and st.reason == R_COLLAPSE_CERT


def point_core(cx):
    core = _strong_core(cx)[0].facets
    return len(core) == 1 and core[0].bit_count() == 1


def no_search(monkeypatch):
    from convexcodes import analysis

    def refuse(*args, **kw):
        raise AssertionError("a link whose strong core is a point is never searched")

    monkeypatch.setattr(analysis, "is_collapsible", refuse)


def test_point_cores_are_certified_without_a_search(monkeypatch):
    no_search(monkeypatch)
    points = certified = 0
    for n in range(5, 9):
        for seed in range(3000):
            cx = random_complex(n, seed)
            if not point_core(cx):
                continue
            points += 1
            st = contractibility_status(cx)
            assert st.value is Verdict.YES, (n, seed)
            if st.reason == R_COLLAPSE_CERT:
                certified += 1
                assert certifies_collapse(cx, st.certificate), (n, seed)
                assert st.certificate == oracles.scanning_strong_collapse_steps(cx.facets)
                assert all(step.tau.bit_count() == step.sigma.bit_count() + 1
                           for step in st.certificate)
    # the rest are trees or cones, decided on earlier rungs
    assert (points, certified) == (9683, 809)


def test_strong_collapse_steps_refuse_a_nonpoint_core():
    with pytest.raises(InternalInconsistency):
        _strong_collapse_steps(searched_complex().facets, ())


def test_inconsistency_message_braces_the_witness_on_12_labels(monkeypatch):
    # a locally-good No at {1,2} beside a locally-great Yes cannot happen,
    # so the two verdicts are forced; the witness must not read as label 12
    monkeypatch.setattr(analysis._LinkTable, "locally_good",
                        lambda self: TriStatus(Verdict.NO, R_TREE_TEST, witness=F("12")))
    monkeypatch.setattr(analysis._LinkTable, "locally_great",
                        lambda self: TriStatus(Verdict.YES, R_ALL_LINKS))
    with pytest.raises(InternalInconsistency, match=r"at witness \{1,2\} yet"):
        classify(Code(12, frozenset({F("12"), face_of([12])})))


def test_three_triangle_path_needs_no_search(monkeypatch):
    no_search(monkeypatch)
    tri_path = SimplicialComplex.from_facets(7, [F("123"), F("345"), F("567")])
    tight = Budget(nodes=1, greedy_restarts=0)
    st = contractibility_status(tri_path, budget=tight)
    assert st.value is Verdict.YES and st.reason == R_COLLAPSE_CERT
    assert certifies_collapse(tri_path, st.certificate)
    report = classify(cone_minus_apex(tri_path), tight)
    assert report.locally_good.is_yes and report.locally_great.is_yes


def test_search_pool_searches_only_links_with_a_nonpoint_core(monkeypatch):
    from convexcodes import analysis

    searched = []

    def recording(cx, *args, _fn=analysis.is_collapsible, **kw):
        searched.append(cx)
        return _fn(cx, *args, **kw)

    monkeypatch.setattr(analysis, "is_collapsible", recording)
    for i in range(64):
        classify(random_code(7, i), Budget(nodes=5000))
    # the other 69 links past the Betti rung have a point core and take a
    # certificate instead
    assert len(searched) == 4
    assert not any(point_core(cx) for cx in searched)


def test_contractibility_easy_yes():
    pt = SimplicialComplex.from_facets(1, [1])
    assert contractibility_status(pt).value is Verdict.YES
    solid = SimplicialComplex.from_facets(3, [F("123")])
    st = contractibility_status(solid)
    assert st.value is Verdict.YES and st.reason == R_CONE_APEX
    assert st.certificate == F("1")  # lowest shared vertex reported as apex


def test_contractibility_void_rejected():
    with pytest.raises(VoidComplex):
        contractibility_status(SimplicialComplex.void(2))


def test_facet_intersections_examples():
    cx = SimplicialComplex.from_facets(4, [F("123"), F("234")])
    assert facet_intersections(cx) == frozenset({F("123"), F("234"), F("23")})
    cex = closure(counterexample_code())
    want = {F(w) for w in
            ("123", "134", "145", "2345", "13", "23", "14", "34", "45", "1", "3", "4")}
    assert facet_intersections(cex) == frozenset(want)
    single = SimplicialComplex.from_facets(3, [F("12")])
    assert facet_intersections(single) == frozenset({F("12")})


def test_facet_intersections_match_all_intersections():
    from itertools import combinations

    from convexcodes.instances import random_complex

    for seed in range(40):
        cx = random_complex(6, seed)
        if cx.is_void:
            continue
        want = set()
        for r in range(1, len(cx.facets) + 1):
            for group in combinations(cx.facets, r):
                meet = group[0]
                for f in group[1:]:
                    meet &= f
                if meet:
                    want.add(meet)
        assert facet_intersections(cx) == frozenset(want)
    assert facet_intersections(SimplicialComplex(3, (0,))) == frozenset()


def test_facet_intersections_are_capped():
    # the hollow simplex on 21 labels has 2^21 - 2 facet intersections,
    # every face but the empty one; the closure stops once it passes 2^20
    full = (1 << 21) - 1
    hollow = Code(21, frozenset(full ^ 1 << i for i in range(21)))
    with pytest.raises(TooLarge, match=r"intersection closure is capped at 2\^20 members"):
        classify(hollow)


def test_facet_intersections_closed_under_meet():
    from convexcodes.instances import random_complex

    for seed in range(25):
        cx = random_complex(6, seed)
        if cx.is_void:
            continue
        fi = facet_intersections(cx)
        assert set(cx.facets) - {0} <= fi
        for a in fi:
            for b in fi:
                if a & b:
                    assert a & b in fi


def test_mandatory_codewords_examples():
    found, unknown = mandatory_codewords(connected_not_goodcover_code())
    assert F("4") in found and not unknown
    found, unknown = mandatory_codewords(counterexample_code())
    assert found <= counterexample_code().words
    assert F("1") not in found and not unknown
    found, unknown = mandatory_codewords(intro_code())
    assert found <= intro_code().words and not unknown


def test_missing_mandatory_word_forces_no():
    for seed in range(40):
        code = random_code(5, seed)
        found, _ = mandatory_codewords(code)
        if found - code.words:
            assert is_locally_good(code).value is Verdict.NO


def test_locally_good_examples():
    st = is_locally_good(broken_line_code())
    assert st.value is Verdict.NO and st.witness == F("3")
    assert is_locally_good(counterexample_code()).value is Verdict.YES
    for n in range(3, 7):
        assert is_locally_good(c_n(n)).value is Verdict.YES


def test_locally_good_no_witness_is_sound():
    for seed in range(60):
        code = random_code(5, seed)
        st = is_locally_good(code)
        if st.value is not Verdict.NO:
            continue
        cx = closure(code)
        assert st.witness not in code.words
        assert st.witness in set(cx.faces())
        lk = link(cx, st.witness)
        faces = oracles.complex_faces(lk)
        nonempty = {f for f in faces if f}
        if st.reason == R_TREE_TEST:
            verts = sum(1 for f in nonempty if len(f) == 1)
            edges = sum(1 for f in nonempty if len(f) == 2)
            comps = oracles.component_count(faces)
            assert comps != 1 or edges != verts - 1
        else:
            assert any(
                any(oracles.reduced_betti(faces, p)) for p in (2, 3, 5)
            )


def test_locally_great_counterexample():
    code = counterexample_code()
    st = is_locally_great(code)
    assert st.value is Verdict.YES
    cx = closure(code)
    missing = {f for f in cx.faces() if f and f not in code.words}
    want = {F(w) for w in
            ("234", "235", "245", "345", "12", "15", "24", "25", "35", "1", "2", "5")}
    assert missing == want


def test_locally_great_gadget_over_dunce_hat():
    code = cone_minus_apex(dunce_hat())
    apex = face_of([dunce_hat().ambient_n + 1])
    st = is_locally_great(code)
    assert st.value is Verdict.NO and st.witness == apex
    # the one search on the apex's link decided it after one node
    assert st.certificate == {"nodes_explored": 1}
    good = is_locally_good(code)
    assert good.value is Verdict.UNKNOWN


def test_classify_searches_each_link_at_most_once(monkeypatch):
    from convexcodes import analysis

    outcomes = []

    def recording(*args, _fn=analysis.is_collapsible, **kw):
        outcomes.append(_fn(*args, **kw))
        return outcomes[-1]

    monkeypatch.setattr(analysis, "is_collapsible", recording)
    great = classify(cone_minus_apex(dunce_hat())).locally_great
    assert len(outcomes) == 1 and outcomes[0].nodes_explored == 1
    assert great.certificate == {"nodes_explored": 1}
    # the apex's link is acyclic, no cone, its own strong core, and cut
    # off by a one-node budget
    code = cone_minus_apex(searched_complex())
    apex = face_of([7])
    outcomes.clear()
    report = classify(code, Budget(nodes=1, greedy_restarts=0))
    assert len(outcomes) == 1
    for st in (report.locally_good, report.locally_great):
        assert (st.value, st.reason, st.witness) == (Verdict.UNKNOWN, R_BUDGET, apex)
    assert report.mandatory_unknown == {apex}
    report = classify(code)
    assert report.locally_good.is_yes and report.locally_great.is_yes


def test_locally_great_vacuous():
    st = is_locally_great(c_n(4))
    assert st.value is Verdict.YES and st.reason == R_VACUOUS
    st = is_locally_great(two_edge_overlap_code())
    assert st.value is Verdict.YES and st.reason != R_VACUOUS


@pytest.mark.parametrize("n", [40, 64])
def test_locally_great_enumerates_no_face_of_a_wide_word(n):
    # the full word is the only facet intersection and a codeword; every
    # other nonempty face but 1 is missing, with a cone link
    code = Code(n, frozenset({(1 << n) - 1, 1}))
    t = time.perf_counter()
    great = classify(code).locally_great
    assert time.perf_counter() - t < 1
    assert (great.value, great.reason) == (Verdict.YES, R_ALL_LINKS)


@pytest.mark.parametrize("code", [Code(3, frozenset({0b111, 1})),
                                  Code(40, frozenset({(1 << 40) - 1, 1}))])
def test_locally_good_and_great_share_one_yes_reason(code):
    # the only facet intersection is the full word, a codeword; every
    # other nonempty face but 1 is missing, with a cone link
    report = classify(code)
    for st in (is_locally_good(code), is_locally_great(code),
               report.locally_good, report.locally_great):
        assert (st.value, st.reason) == (Verdict.YES, R_ALL_LINKS)
    for st in (is_locally_good(c_n(4)), classify(c_n(4)).locally_good):
        assert (st.value, st.reason) == (Verdict.YES, R_VACUOUS)


def test_max_intersection_complete():
    assert not classify(counterexample_code()).max_intersection_complete
    assert classify(c_n(4)).max_intersection_complete
    assert classify(intro_code()).max_intersection_complete


def test_cone_minus_apex_examples():
    solid = SimplicialComplex.from_facets(3, [F("123")])
    assert is_locally_good(cone_minus_apex(solid)).value is Verdict.YES
    tri = SimplicialComplex.from_facets(3, [F("12"), F("13"), F("23")])
    st = is_locally_good(cone_minus_apex(tri))
    assert st.value is Verdict.NO and st.witness == face_of([4])


def test_cone_minus_apex_shape():
    from convexcodes.complexes import cone
    from convexcodes.instances import random_complex

    for seed in range(20):
        cx = random_complex(5, seed)
        if cx.is_void:
            continue
        code = cone_minus_apex(cx)
        v = cx.ambient_n + 1
        assert closure(code) == cone(cx, v)
        missing = {
            f for f in closure(code).faces() if f and f not in code.words
        }
        assert missing == {face_of([v])}


def test_cone_minus_apex_void_rejected():
    with pytest.raises(VoidComplex):
        cone_minus_apex(SimplicialComplex.void(3))


def test_classify_counterexample():
    rep = classify(counterexample_code())
    assert isinstance(rep, AnalysisReport)
    assert rep.sparsity == 4
    assert not rep.max_intersection_complete
    assert rep.locally_good.value is Verdict.YES
    assert rep.locally_great.value is Verdict.YES
    assert rep.mandatory_found <= counterexample_code().words
    assert not rep.mandatory_unknown
    assert rep.implication_notes.strip()


def test_classify_connected_not_goodcover():
    rep = classify(connected_not_goodcover_code())
    assert rep.locally_good.value is Verdict.NO
    assert rep.locally_good.witness == F("4")
    assert rep.locally_great.value is Verdict.NO


def test_classify_two_edge_overlap():
    rep = classify(two_edge_overlap_code())
    assert rep.locally_good.value is Verdict.YES


def built_links(cx, sigmas):
    """The faces whose links a link table builds and decides, in (size, mask) order.

    A link is built when no earlier link had its shape, or when a
    collapse certificate or the search decides it; a tree test or nonzero
    Betti numbers decide every later link of the same shape with no link
    built.
    """
    shapes, built = set(), []
    for sigma in sorted(sigmas, key=lambda f: (f.bit_count(), f)):
        lk = link(cx, sigma)
        shape = _shape(lk.facets)
        searched = contractibility_status(lk).reason not in (R_TREE_TEST, R_NONZERO_BETTI)
        if searched or shape not in shapes:
            built.append(sigma)
            if not searched:
                shapes.add(shape)
    return built


def twin_search_code():
    """Two facet-intersection links of one shape that only the search decides.

    The links of 1 and of 9 are each a path of three triangles: acyclic,
    not a cone, so each needs its own collapse certificate on its own labels.
    """
    path = [(2, 3, 4), (4, 5, 6), (6, 7, 8)]
    words = [face_of((1, *t)) for t in path] + [face_of((9, *(v + 8 for v in t))) for t in path]
    return Code(16, frozenset(words))


def test_classify_builds_and_decides_each_link_shape_once(monkeypatch):
    from convexcodes import analysis

    counted = ("closure", "facet_intersections", "link", "contractibility_status",
               "is_collapsible")
    codes = [counterexample_code(), cone_minus_apex(dunce_hat()), c_n(7), twin_search_code()]
    codes += [random_code(6, seed) for seed in range(4)]
    repeats = 0
    for code in codes:
        cx = closure(code)
        fi = facet_intersections(cx)
        fi_links = {link(cx, sigma) for sigma in fi}
        built = built_links(cx, fi)
        repeats += len(fi) - len(built)
        calls = {name: [] for name in counted}
        with monkeypatch.context() as m:
            for name in counted:
                def record(*args, _fn=getattr(analysis, name), _calls=calls[name], **kw):
                    _calls.append(args)
                    return _fn(*args, **kw)

                m.setattr(analysis, name, record)
            analysis.classify(code)
        assert len(calls["closure"]) == 1
        assert len(calls["facet_intersections"]) == 1
        assert [args[1] for args in calls["link"]] == built
        assert [args[0] for args in calls["contractibility_status"]] == [
            link(cx, sigma) for sigma in built
        ]
        # no search on a link outside the facet intersections: those are cones
        assert all(args[0] in fi_links for args in calls["is_collapsible"])
    assert repeats > 0


def test_link_table_matches_fresh_status_per_link(monkeypatch):
    from convexcodes import analysis
    from convexcodes.homology import DEFAULT_PRIMES
    from convexcodes.instances import all_codes

    built = []

    def recording(cx, sigma, _fn=analysis.link):
        built.append(sigma)
        return _fn(cx, sigma)

    monkeypatch.setattr(analysis, "link", recording)
    codes = list(all_codes(4)) + [random_code(n, s) for n in (5, 6) for s in range(50)]
    codes.append(twin_search_code())
    hits = 0
    for code in codes:
        table = analysis._LinkTable(code, Budget(), DEFAULT_PRIMES)
        memo = {}
        certificates = []
        for sigma in table.links:
            built.clear()
            st = table.entry(sigma)
            # a link of a known shape is never built
            hits += not built
            fresh = contractibility_status(link(table.cx, sigma), Budget(), memo)
            assert st == fresh, (code, sigma)
            # a vertex in every facet containing a facet intersection lies in
            # the intersection itself, so no such link is a cone
            assert fresh.reason != R_CONE_APEX
            if st.reason == R_TREE_TEST:
                certificates.append(st.certificate)
        # each link owns its graph summary, even when its shape was known
        assert len({id(c) for c in certificates}) == len(certificates)
    assert hits > 0


def test_chain_consistency():
    # locally great Yes forces locally good Yes; good No forces great No
    for seed in range(80):
        code = random_code(5, seed)
        great = is_locally_great(code)
        good = is_locally_good(code)
        if great.value is Verdict.YES:
            assert good.value is Verdict.YES
        if good.value is Verdict.NO:
            assert great.value is Verdict.NO


def test_facet_intersection_reduction_matches_naive():
    from convexcodes.instances import all_codes

    for code in all_codes(3):
        direct = is_locally_good(code)
        naive_value, _ = oracles.naive_locally_good(code)
        assert direct.value is naive_value
        great = is_locally_great(code)
        assert (great.value, great.witness) == oracles.naive_locally_great(code)
    for seed in range(40):
        code = random_code(4, seed)
        direct = is_locally_good(code)
        naive_value, _ = oracles.naive_locally_good(code)
        assert direct.value is naive_value
        great = is_locally_great(code)
        assert (great.value, great.witness) == oracles.naive_locally_great(code)


def test_empty_word_never_matters():
    for seed in range(20):
        code = random_code(4, seed)
        plain = Code(code.ambient_n, code.words - {0})
        padded = Code(code.ambient_n, code.words | {0})
        assert is_locally_good(plain).value is is_locally_good(padded).value
        assert is_locally_great(plain).value is is_locally_great(padded).value


def vertices(cx):
    """The labels of cx's vertices, ascending."""
    return face_members(reduce(or_, cx.facets, 0))


def relabel(cx, labels):
    """cx with its i-th smallest vertex renamed labels[i]; labels ascend."""
    rename = dict(zip(vertices(cx), labels))
    facets = [face_of(rename[v] for v in face_members(f)) for f in cx.facets]
    return SimplicialComplex.from_facets(max(labels, default=1), facets)


def test_classify_computes_betti_once_per_core_shape(monkeypatch):
    from convexcodes import homology

    calls = []

    def counting(cx, p, _fn=homology.reduced_betti):
        calls.append((relabel(cx, range(1, len(vertices(cx)) + 1)).facets, p))
        return _fn(cx, p)

    monkeypatch.setattr(homology, "reduced_betti", counting)
    # every link of c_n(10) is a sphere, its own core, one shape per size of
    # sigma; sizes 1..6 reach homology, which proves each one at p = 2
    first = classify(c_n(10))
    assert len(calls) == len(set(calls)) == 6
    assert first.mandatory_found == frozenset(range(1, (1 << 10) - 1))
    # a second classify shares nothing with the first
    calls.clear()
    assert classify(c_n(10)) == first
    assert len(calls) == 6


def count_betti(monkeypatch):
    """Record (facets, p) for each Betti computation the ladder makes."""
    from convexcodes import homology

    calls = []

    def counting(cx, p, _fn=homology.reduced_betti):
        calls.append((cx.facets, p))
        return _fn(cx, p)

    monkeypatch.setattr(homology, "reduced_betti", counting)
    return calls


def test_links_with_one_core_share_one_betti_computation(monkeypatch):
    calls = count_betti(monkeypatch)
    # 4 is dominated, then 5 too: both cores are the 3-cycle 12, 13, 23
    small = SimplicialComplex.from_facets(4, [F("12"), F("13"), F("234")])
    large = SimplicialComplex.from_facets(5, [F("12"), F("13"), F("2345")])
    memo = {}
    statuses = [contractibility_status(cx, memo=memo) for cx in (small, large)]
    assert calls == [((F("12"), F("13"), F("23")), 2)]
    assert [st.reason for st in statuses] == [R_NONZERO_BETTI] * 2
    # each certificate is padded to its own link's dimension
    assert [st.certificate.betti for st in statuses] == [(0, 1, 0), (0, 1, 0, 0)]
    for cx, st in zip((small, large), statuses):
        assert st.certificate == reduced_betti(cx, 2)


def test_dominated_vertex_over_rp2_keeps_its_primes_apart():
    # coning the triangle 125 of RP^2 over a new vertex 7 adds a dominated
    # vertex; the core is RP^2 again, whose homology differs over F_2 and F_3
    plane = rp2()
    cx = SimplicialComplex.from_facets(
        7, [f | F("7") if f == F("125") else f for f in plane.facets])
    assert _strong_core(cx)[0].facets == plane.facets
    assert reduced_betti(cx, 2).betti == (0, 1, 1, 0)
    assert reduced_betti(cx, 3).betti == (0, 0, 0, 0)
    assert is_acyclic(cx, (3, 5)) and not is_acyclic(cx)
    memo = {}
    st = contractibility_status(cx, memo=memo, primes=(3, 2))
    assert st.reason == R_NONZERO_BETTI
    assert st.certificate == BettiVector(2, (0, 1, 1, 0))
    shape = _shape(plane.facets)
    assert memo == {
        ("betti", 3, shape): BettiVector(3, (0, 0, 0)),
        ("betti", 2, shape): BettiVector(2, (0, 1, 1)),
    }
    # RP^2 itself finds both primes in the memo
    assert contractibility_status(plane, memo=memo, primes=(3, 2)) == TriStatus(
        Verdict.NO, R_NONZERO_BETTI, certificate=BettiVector(2, (0, 1, 1)))
    assert len(memo) == 2


def test_search_pool_betti_computations_are_pinned(monkeypatch):
    # one classify per code at a 5,000-node budget; Betti numbers keyed by
    # each link's shape, rather than its core's, took 650 computations.
    # Links whose core is a point never reach the Betti loop, so that
    # core's all-zero vectors are not computed.
    calls = count_betti(monkeypatch)
    for i in range(64):
        classify(random_code(7, i), Budget(nodes=5000))
    assert len(calls) == 186


def test_betti_memo_matches_fresh_homology(monkeypatch):
    from convexcodes import analysis

    # with the search stubbed out, every status comes from the tree, cone
    # or Betti rung, so each must equal the status computed afresh
    unknown = CollapseOutcome(Verdict.UNKNOWN, None, 0, True)
    monkeypatch.setattr(analysis, "is_collapsible", lambda *args, **kw: unknown)
    rng = random.Random(7)
    memo = {}  # one memo across every complex, as one classify shares it
    for seed in range(2000):
        cx = random_complex(7, seed, max_facets=8)
        k = len(vertices(cx))
        shifted = relabel(cx, range(1 + seed % 5, k + 1 + seed % 5))
        spread = relabel(cx, sorted(rng.sample(range(1, 65), k)))
        fresh = contractibility_status(cx)
        for other in (cx, shifted, spread):
            st = contractibility_status(other, memo=memo)
            assert st == contractibility_status(other), (seed, other.facets)
            assert (st.value, st.reason) == (fresh.value, fresh.reason)
            if st.reason == R_NONZERO_BETTI:
                assert st.certificate == fresh.certificate


def test_betti_and_search_entries_share_one_memo():
    # acyclic, no cone, its own core: all three primes are computed, then
    # the search runs
    cx = searched_complex()
    memo = {}
    st = contractibility_status(cx, memo=memo)
    assert st.reason == R_COLLAPSE_CERT
    betti = {key for key in memo if key[0] == "betti"}
    assert {(len(key), key[1]) for key in betti} == {(3, 2), (3, 3), (3, 5)}
    assert all(len(key) == 2 and key[0] in ENGINES for key in memo.keys() - betti)
    shifted = relabel(cx, range(2, 8))
    assert contractibility_status(shifted, memo=memo).reason == R_COLLAPSE_CERT
    assert {key for key in memo if key[0] == "betti"} == betti


def test_standalone_quantifiers_stop_early(monkeypatch):
    from convexcodes import analysis

    calls = []

    def counting(*args, _fn=analysis.contractibility_status, **kw):
        calls.append(args[0])
        return _fn(*args, **kw)

    monkeypatch.setattr(analysis, "contractibility_status", counting)
    # c_n(10) holds every facet intersection, so no link needs deciding
    assert is_locally_good(c_n(10)).value is Verdict.YES
    assert calls == []
    # every singleton is missing and obstructs; the first one settles both
    sphere = c_n(6)
    code = Code(6, sphere.words - {F(str(v)) for v in range(1, 7)})
    for check in (is_locally_good, is_locally_great):
        calls.clear()
        st = check(code)
        assert st.value is Verdict.NO and st.witness == F("1")
        assert len(calls) == 1
    # one call per link shape: each size of sigma is one sphere
    calls.clear()
    found, _ = mandatory_codewords(code)
    cx = closure(code)
    assert calls == [link(cx, sigma) for sigma in built_links(cx, facet_intersections(cx))]
    assert len(calls) == 5 and F("6") in found


@pytest.mark.parametrize("decide", [classify, mandatory_codewords, is_locally_good])
def test_link_table_checks_its_primes_up_front(decide):
    # every link of c_4 is a graph, decided before any Betti number
    with pytest.raises(ValueError, match="not prime"):
        decide(c_n(4), primes=(4,))


def test_classify_rejects_a_float_prime():
    # c_5's links reach the Betti rung, where 3.0 would fail inside rank_mod_p
    with pytest.raises(ValueError, match="not an integer"):
        classify(c_n(5), primes=(3.0,))
