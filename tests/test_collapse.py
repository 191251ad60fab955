"""Elementary collapses and the exhaustive collapsibility search."""

import re

import pytest

from convexcodes import collapse
from convexcodes.collapse import (
    ENGINES,
    Budget,
    CollapseStep,
    certifies_collapse,
    elementary_collapse,
    free_pairs,
    is_collapsible,
    kernel_name,
    replay_certificate,
)
from convexcodes.complexes import (
    Code,
    SimplicialComplex,
    closure,
    face_of,
    order_complex,
)
from convexcodes.errors import IllegalStep, VoidComplex
from convexcodes.instances import (
    all_facet_antichains,
    dunce_hat,
    random_complex,
)
from convexcodes.verdicts import Verdict

from . import oracles


def F(digits):
    return face_of(int(c) for c in digits)


TWO_FACETS = closure(Code(4, frozenset({F("123"), F("34")})))
POINT = SimplicialComplex.from_facets(1, [1])


def pairs(cx, mode):
    return [(s.sigma, s.tau) for s in free_pairs(cx, mode=mode)]


def subdivided_triangle():
    return order_complex(range(1, 8))  # the nonempty faces of the triangle 123


def test_free_pairs_example():
    got = pairs(TWO_FACETS, "collapse")
    for want in [(F("1"), F("123")), (F("2"), F("123")), (F("13"), F("123")),
                 (F("23"), F("123")), (F("4"), F("34"))]:
        assert want in got
    assert all(s != F("3") for s, _ in got)  # 3 lies in both facets


def test_free_pairs_order():
    got = pairs(TWO_FACETS, "collapse")
    assert got == sorted(got, key=lambda st: (st[0].bit_count(), st[0], st[1]))
    strict = pairs(TWO_FACETS, "strict")
    assert strict == [(F("4"), F("34")), (F("12"), F("123")),
                      (F("13"), F("123")), (F("23"), F("123"))]


def test_free_pairs_dunce_hat_empty():
    assert free_pairs(dunce_hat(), mode="collapse") == []
    assert free_pairs(dunce_hat(), mode="strict") == []


def test_free_pairs_point_modes():
    for engine in ENGINES:
        assert free_pairs(POINT, mode=engine) == []


def test_free_pairs_matches_definition():
    for seed in range(30):
        cx = random_complex(6, seed)
        if cx.is_void:
            continue
        for engine in ENGINES:
            assert pairs(cx, engine) == oracles.free_pairs_by_definition(cx, engine)


def test_elementary_collapse_examples():
    facet_del = elementary_collapse(TWO_FACETS, CollapseStep(F("123"), F("123")))
    assert set(facet_del.facets) == {F("12"), F("13"), F("23"), F("34")}
    after = elementary_collapse(TWO_FACETS, CollapseStep(F("1"), F("123")))
    assert set(after.facets) == {F("23"), F("34")}
    edge = closure(Code(4, frozenset({F("34")})))
    assert elementary_collapse(edge, CollapseStep(F("3"), F("34"))).facets == (F("4"),)


def test_elementary_collapse_removes_exactly_star():
    for seed in range(25):
        cx = random_complex(5, seed)
        # the first facet's deletion, then collapses
        steps = [CollapseStep(cx.facets[0], cx.facets[0])] + free_pairs(cx, "collapse")[:3]
        for step in steps:
            after = elementary_collapse(cx, step)
            want = {f for f in cx.faces() if step.sigma & ~f != 0 or f == 0}
            assert set(after.faces()) == want


def test_elementary_collapse_illegal_steps():
    with pytest.raises(IllegalStep):
        elementary_collapse(TWO_FACETS, CollapseStep(F("3"), F("123")))  # not unique
    with pytest.raises(IllegalStep):
        elementary_collapse(TWO_FACETS, CollapseStep(F("1"), F("12")))  # tau not facet
    with pytest.raises(IllegalStep):
        elementary_collapse(TWO_FACETS, CollapseStep(F("4"), F("123")))  # sigma not in tau
    with pytest.raises(IllegalStep):
        elementary_collapse(TWO_FACETS, CollapseStep(0, F("123")))  # empty sigma


def test_illegal_step_messages_brace_faces_on_12_labels():
    # on 12 labels the face {1,2} and the label 12 must print apart
    cx = SimplicialComplex.from_facets(12, [F("123"), face_of([3, 12])])
    with pytest.raises(IllegalStep, match=re.escape("tau {1,2} is not a facet")):
        elementary_collapse(cx, CollapseStep(F("1"), F("12")))
    with pytest.raises(IllegalStep,
                       match=re.escape("sigma {1,2} is not contained in tau {3,12}")):
        elementary_collapse(cx, CollapseStep(F("12"), face_of([3, 12])))
    with pytest.raises(IllegalStep, match=re.escape("sigma {3} lies in 2 facets")):
        elementary_collapse(cx, CollapseStep(F("3"), F("123")))
    with pytest.raises(IllegalStep,
                       match=re.escape("step ({1,2,3},{1,2,3}) deletes a facet")):
        replay_certificate(cx, [CollapseStep(F("123"), F("123"))])


def test_is_collapsible_example():
    for engine in ("collapse", "strict"):
        out = is_collapsible(TWO_FACETS, engine)
        assert out.status is Verdict.YES
        assert certifies_collapse(TWO_FACETS, out.certificate)
        assert not out.budget_exhausted


def test_is_collapsible_dunce_hat():
    out = is_collapsible(dunce_hat())
    assert out.status is Verdict.NO
    assert out.certificate is None
    assert out.nodes_explored == 1 and not out.budget_exhausted


def test_simplices_collapse():
    for n in range(1, 6):
        cx = closure(Code(n, frozenset({(1 << n) - 1})))
        out = is_collapsible(cx)
        assert out.status is Verdict.YES
        assert certifies_collapse(cx, out.certificate)


def test_void_and_engine_validation():
    with pytest.raises(VoidComplex):
        is_collapsible(SimplicialComplex.void(2))
    for search in (free_pairs, is_collapsible):
        with pytest.raises(ValueError, match=r"unknown engine 'generalized'; pick from "
                           + re.escape(repr(ENGINES))):
            search(POINT, "generalized")


def test_empty_face_complex_is_not_collapsible():
    out = is_collapsible(SimplicialComplex(2, (0,)))
    assert out.status is Verdict.NO


def test_certificates_replay_to_a_point():
    for seed in range(40):
        cx = random_complex(5, seed)
        if cx.is_void:
            continue
        out = is_collapsible(cx)
        if out.status is Verdict.YES:
            final = replay_certificate(cx, out.certificate)
            assert len(final.facets) == 1 and final.facets[0].bit_count() == 1
            assert certifies_collapse(cx, out.certificate)


def test_replay_rejects_facet_deletion():
    step = CollapseStep(F("123"), F("123"))
    with pytest.raises(IllegalStep):
        replay_certificate(TWO_FACETS, [step])
    # a single step may still delete a facet
    assert elementary_collapse(TWO_FACETS, step).facets == (F("12"), F("13"), F("23"), F("34"))


def test_engine_equivalence_on_all_small_antichains():
    memo_c, memo_s = {}, {}
    for cx in all_facet_antichains(4):
        a = is_collapsible(cx, "collapse", memo=memo_c)
        b = is_collapsible(cx, "strict", memo=memo_s)
        assert a.status is b.status
        assert a.status is not Verdict.UNKNOWN


def test_engine_equivalence_random():
    for seed in range(50):
        cx = random_complex(6, seed)
        if cx.is_void:
            continue
        a = is_collapsible(cx, "collapse")
        b = is_collapsible(cx, "strict")
        assert a.status is b.status


def test_memo_does_not_change_decisions():
    # the reference explores every state afresh, reading no memo entry back
    decision = {1: Verdict.YES, 0: Verdict.NO}
    shared = {}
    for seed in range(30):
        cx = random_complex(5, seed)
        if cx.is_void:
            continue
        plain = oracles.recursive_dfs(tuple(cx.facets), "strict", Budget().nodes, {},
                                      [0, 0], memoize=False)
        fresh = is_collapsible(cx, memo={})
        reused = is_collapsible(cx, memo=shared)
        assert decision[plain] is fresh.status is reused.status
        if fresh.status is Verdict.YES:
            assert certifies_collapse(cx, fresh.certificate)
            assert certifies_collapse(cx, reused.certificate)


def test_budget_exhaustion_reports_unknown():
    bary = subdivided_triangle()
    out = is_collapsible(bary, budget=Budget(nodes=1, greedy_restarts=0))
    assert out.status is Verdict.UNKNOWN
    assert out.budget_exhausted and out.nodes_explored == 1
    # the greedy front end must respect the same node budget
    out = is_collapsible(bary, budget=Budget(nodes=1, greedy_restarts=2))
    assert out.status is Verdict.UNKNOWN and out.budget_exhausted


def test_unknown_iff_budget_exhausted():
    for seed in range(25):
        cx = random_complex(5, seed)
        if cx.is_void:
            continue
        for nodes in (1, 3, 10_000):
            out = is_collapsible(cx, budget=Budget(nodes=nodes, greedy_restarts=0))
            assert (out.status is Verdict.UNKNOWN) == out.budget_exhausted


def test_greedy_pinned_outcomes():
    # pinned node counts and certificate of the seeded walks; the walks of
    # one call share its memo table, so a later walk stops at a dead end an
    # earlier one recorded
    bary = subdivided_triangle()
    out = is_collapsible(bary, budget=Budget(nodes=12, greedy_restarts=4, seed=1))
    assert out.status is Verdict.YES and out.nodes_explored == 12
    assert [(s.sigma, s.tau) for s in out.certificate] == [
        (20, 84), (10, 74), (72, 73), (34, 98), (36, 100), (32, 96),
        (65, 81), (2, 66), (4, 68), (64, 80), (8, 9), (1, 17)]
    dh = dunce_hat()
    trap = SimplicialComplex.from_facets(9, list(dh.facets) + [dh.facets[0] | 1 << 8])
    # three walks get stuck after 4 nodes each before the search's 12
    for restarts, nodes in ((0, 12), (1, 16), (3, 24)):
        out = is_collapsible(trap, budget=Budget(greedy_restarts=restarts, seed=1))
        assert out.status is Verdict.NO and out.nodes_explored == nodes
    out = is_collapsible(trap, budget=Budget(nodes=20, greedy_restarts=3, seed=1))
    assert out.status is Verdict.UNKNOWN and out.budget_exhausted
    assert out.certificate is None and out.nodes_explored == 20


def test_facet_deletion_breaks_contractibility():
    # removing one facet from a collapsible complex leaves chi - 1 = -1 or
    # +1... either way nonzero, so some reduced Betti number survives
    from convexcodes.homology import reduced_betti

    hits = 0
    for seed in range(40):
        cx = random_complex(5, seed)
        if cx.is_void or is_collapsible(cx).status is not Verdict.YES:
            continue
        for facet in cx.facets:
            after = elementary_collapse(cx, CollapseStep(facet, facet))
            if after.is_void or not any(after.facets):
                continue
            assert any(
                any(reduced_betti(after, p).betti) for p in (2, 3, 5)
            )
            hits += 1
    assert hits > 20


def test_step_rendering():
    assert str(CollapseStep(F("1"), F("123"))) == "(1,123)"
    # on 12 labels the face {1,2} and the label 12 must print apart
    assert str(CollapseStep(F("12"), face_of([1, 2, 12]))) == "({1,2},{1,2,12})"


def _search_both_ways(monkeypatch, cx, mode, budget, memos):
    """Run the search with its own DFS, then with the recursive oracle."""
    results = []
    for dfs, memo in zip((collapse._dfs, oracles.recursive_dfs), memos):
        with monkeypatch.context() as m:
            m.setattr(collapse, "_dfs", dfs)
            results.append(is_collapsible(cx, mode, budget, memo))
    return results


def test_iterative_dfs_matches_recursion(monkeypatch):
    inputs = [cx for cx in (random_complex(6, seed) for seed in range(40)) if not cx.is_void]
    settings = [(200_000, 2), (200_000, 0), (7, 0)]
    for cx in inputs:
        for mode in ("collapse", "strict"):
            for nodes, restarts in settings:
                budget = Budget(nodes=nodes, greedy_restarts=restarts)
                memos = ({}, {})
                a, b = _search_both_ways(monkeypatch, cx, mode, budget, memos)
                assert a == b and memos[0] == memos[1], (cx.facets, mode, nodes)
    # one memo shared across every small complex, as classify shares it
    shared = ({}, {})
    for cx in all_facet_antichains(4):
        for mode in ("collapse", "strict"):
            a, b = _search_both_ways(monkeypatch, cx, mode,
                                     Budget(nodes=200_000, greedy_restarts=0), shared)
            assert a == b and shared[0] == shared[1], (cx.facets, mode)


def test_deep_search_needs_no_recursion():
    # with no greedy walk, the search runs 2047 nodes deep into the
    # 12-simplex; a recursive search overflows Python's stack there
    cx = closure(Code(12, frozenset({(1 << 12) - 1})))
    out = is_collapsible(cx, budget=Budget(greedy_restarts=0))
    assert out.status is Verdict.YES and out.nodes_explored == 2047
    assert certifies_collapse(cx, out.certificate)


def test_large_complex_without_free_pairs_is_one_node_no():
    # 2-skeleton of a 13-vertex simplex: 286 facets, every edge in 11 of
    # them, so the root has no free pair and the search stops there
    faces = [face_of(t) for t in __import__("itertools").combinations(range(1, 14), 3)]
    cx = SimplicialComplex.from_facets(13, faces)
    assert len(cx.facets) == 286
    assert free_pairs(cx, mode="strict") == []
    out = is_collapsible(cx)
    assert out.status is Verdict.NO and out.nodes_explored == 1


def test_kernel_name_reports_selection():
    assert kernel_name() == "pure-python"
