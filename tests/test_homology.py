"""Mod-p simplicial homology and its use as a non-contractibility witness."""

import math
import os
import subprocess
import sys
import time

import pytest

from convexcodes.collapse import elementary_collapse, free_pairs
from convexcodes.complexes import (
    Code,
    SimplicialComplex,
    closure,
    cone,
    face_members,
    face_of,
)
from convexcodes import homology
from convexcodes.cli import run
from convexcodes.errors import DimensionOutOfRange, VoidComplex
from convexcodes.homology import (
    _check_prime,
    _strong_core,
    boundary_matrix,
    is_acyclic,
    rank_mod_p,
    reduced_betti,
)
from convexcodes.instances import all_facet_antichains, c_n, dunce_hat, random_complex, rp2

from . import oracles

PRIMES = (2, 3, 5)

EDGE = SimplicialComplex.from_facets(2, [0b11])
TRI_BDRY = SimplicialComplex.from_facets(3, [0b011, 0b101, 0b110])
TRI_SOLID = SimplicialComplex.from_facets(3, [0b111])


def F(*labels):
    return face_of(labels)


def simplex_boundary(k):
    """The boundary of the k-simplex on labels 1..k+1, a (k-1)-sphere."""
    full = (1 << (k + 1)) - 1
    return SimplicialComplex.from_facets(k + 1, [full ^ (1 << i) for i in range(k + 1)])


def test_boundary_matrix_examples():
    assert boundary_matrix(EDGE, 1, 2).tolist() == [[1], [1]]
    assert boundary_matrix(TRI_SOLID, 2, 2).tolist() == [[1], [1], [1]]
    m = boundary_matrix(TRI_BDRY, 1, 3)
    assert m.shape == (3, 3)
    # rows are vertices 1,2,3 and columns edges 12,13,23 in mask order
    assert m.tolist() == [[2, 2, 0], [1, 0, 2], [0, 1, 1]]


def test_boundary_matrix_k0_row_is_empty_face():
    assert boundary_matrix(TRI_BDRY, 0, 2).tolist() == [[1, 1, 1]]


def test_boundary_matrix_dimension_errors():
    for k in (-1, 2, 5):
        with pytest.raises(DimensionOutOfRange):
            boundary_matrix(TRI_BDRY, k, 2)


def test_boundary_composition_is_zero():
    for seed in range(25):
        cx = random_complex(6, seed)
        if cx.is_void or cx.dimension() < 1:
            continue
        for p in PRIMES:
            for k in range(1, cx.dimension() + 1):
                a = boundary_matrix(cx, k - 1, p).tolist()
                b = boundary_matrix(cx, k, p).tolist()
                assert all(
                    sum(x * y for x, y in zip(row, col)) % p == 0
                    for row in a
                    for col in zip(*b)
                )


def test_reduced_betti_examples():
    assert reduced_betti(TRI_BDRY, 2).betti == (0, 1)
    assert reduced_betti(closure(c_n(4)), 2).betti == (0, 0, 1)
    assert reduced_betti(rp2(), 2).betti == (0, 1, 1)
    assert reduced_betti(rp2(), 3).betti == (0, 0, 0)
    assert reduced_betti(rp2(), 5).betti == (0, 0, 0)


def test_reduced_betti_field_tag():
    bv = reduced_betti(TRI_BDRY, 3)
    assert bv.field_characteristic == 3 and bv.betti == (0, 1)


def test_reduced_betti_rejects_nonprime():
    for p in (1, 4, 6):
        with pytest.raises(ValueError):
            reduced_betti(TRI_BDRY, p)


def test_prime_check_matches_trial_division():
    for p in range(-3, 10_000):
        is_prime = p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))
        if is_prime:
            _check_prime(p)
        else:
            with pytest.raises(ValueError):
                _check_prime(p)


def test_prime_check_rejects_pseudoprimes():
    # Carmichael numbers, 10**18 + 1, and strong pseudoprimes to base 2,
    # to bases 2..7 and to bases 2..23
    for n in (561, 1105, 1729, 1_000_000_000_000_000_001, 2047, 3_215_031_751,
              3_825_123_056_546_413_051):
        with pytest.raises(ValueError, match="not prime"):
            _check_prime(n)


def test_large_prime_is_fast():
    start = time.perf_counter()
    bv = reduced_betti(TRI_BDRY, 1_000_000_000_000_000_003)
    assert time.perf_counter() - start < 2
    assert bv.betti == (0, 1)
    _check_prime(2**61 - 1)


def test_is_acyclic_checks_every_prime():
    # F_2 already shows RP^2 is not acyclic; the 4 after it is still refused
    with pytest.raises(ValueError, match="not prime"):
        is_acyclic(rp2(), (2, 4))


def test_is_acyclic_rejects_a_float_prime():
    # 3.0 passes a primality test, then fails inside modular arithmetic
    with pytest.raises(ValueError, match="not an integer"):
        is_acyclic(rp2(), (3.0,))


def test_prime_above_supported_bound_rejected():
    with pytest.raises(ValueError, match="exceeds"):
        _check_prime(2**127 - 1)


def test_void_complex_rejected():
    with pytest.raises(VoidComplex):
        reduced_betti(SimplicialComplex.void(2), 2)
    with pytest.raises(VoidComplex):
        is_acyclic(SimplicialComplex.void(2))


def test_empty_face_only_complex():
    assert reduced_betti(SimplicialComplex(2, (0,)), 2).betti == ()


def test_empty_face_only_complex_is_not_acyclic():
    # its empty face is a cycle in degree -1 that bounds nothing
    empty = SimplicialComplex(1, (0,))
    assert not is_acyclic(empty)
    assert not is_acyclic(empty, (2,))
    assert is_acyclic(SimplicialComplex(1, (1,)))


def test_core_betti_matches_the_whole_complex():
    complexes = [random_complex(n, seed) for n in (5, 6, 7) for seed in range(100)]
    complexes += list(all_facet_antichains(4)) + [dunce_hat(), rp2()]
    for cx in complexes:
        if cx.is_void:
            continue
        for p in PRIMES + (7,):
            assert reduced_betti(cx, p) == oracles.naive_reduced_betti(cx, p)


def test_strongly_collapsible_complex_builds_no_matrix(monkeypatch):
    # a strip of triangles 123, 234, 345, 456: no vertex lies in every
    # facet, but 1 is dominated by 2, then 2 by 3, and so on to a point
    strip = SimplicialComplex.from_facets(
        6, [face_of(t) for t in ((1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 6))])
    common = strip.facets[0]
    for f in strip.facets:
        common &= f
    assert common == 0

    def unbuilt(cx, k, p):
        raise AssertionError("a boundary matrix was built")

    monkeypatch.setattr(homology, "boundary_matrix", unbuilt)
    for p in PRIMES + (7,):
        assert reduced_betti(strip, p) == homology.BettiVector(p, (0, 0, 0))
    assert is_acyclic(strip, PRIMES)


def test_is_acyclic_builds_the_core_once(monkeypatch):
    reductions = []

    def recording(cx, _fn=homology._strong_core):
        core = _fn(cx)
        if core is not cx:
            reductions.append(cx.facets)
        return core

    monkeypatch.setattr(homology, "_strong_core", recording)
    # the dunce hat with one triangle coned over a dominated vertex 9
    hat = dunce_hat()
    top = hat.facets[0]
    cx = SimplicialComplex.from_facets(9, [f | 1 << 8 if f == top else f for f in hat.facets])
    assert is_acyclic(cx, PRIMES + (7,))
    assert reductions == [cx.facets]


def no_matrix(monkeypatch):
    """Make building a boundary matrix or a face cache fail the test."""

    def unbuilt(*args):
        raise AssertionError("a face cache or a boundary matrix was built")

    monkeypatch.setattr(homology, "boundary_matrix", unbuilt)
    monkeypatch.setattr(SimplicialComplex, "_all_faces", unbuilt)


def test_hollow_simplex_betti_in_closed_form(monkeypatch):
    # the boundary of the (v-1)-simplex is a (v-2)-sphere and its own core
    spheres = [simplex_boundary(v - 1) for v in range(2, 13)]
    want = {(cx, p): oracles.reduced_betti(oracles.complex_faces(cx), p)
            for cx in spheres for p in PRIMES}
    for cx in spheres:
        assert _strong_core(cx) == cx
    no_matrix(monkeypatch)
    for cx in spheres:
        for p in PRIMES:
            assert reduced_betti(cx, p).betti == want[cx, p]
        assert not is_acyclic(cx)


def test_complex_collapsing_onto_a_hollow_simplex_gets_the_padded_vector(monkeypatch):
    # the boundary of the tetrahedron 1234 with a pendant triangle on the
    # edge 12, and with a pendant tetrahedron at the vertex 4: the vertices
    # 5..7 are dominated and deleted, leaving the 2-sphere
    sphere = simplex_boundary(3)
    triangle = SimplicialComplex.from_facets(5, sphere.facets + (F(1, 2, 5),))
    tetrahedron = SimplicialComplex.from_facets(7, sphere.facets + (F(4, 5, 6, 7),))
    cases = [(triangle, (0, 0, 1)), (tetrahedron, (0, 0, 1, 0))]
    for cx, _ in cases:
        assert _strong_core(cx) == SimplicialComplex(cx.ambient_n, sphere.facets)
    want = {(cx, p): oracles.reduced_betti(oracles.complex_faces(cx), p)
            for cx, _ in cases for p in PRIMES}
    no_matrix(monkeypatch)
    for cx, betti in cases:
        for p in PRIMES:
            assert reduced_betti(cx, p).betti == want[cx, p] == betti
        assert not is_acyclic(cx)


def test_near_misses_of_a_hollow_simplex_build_matrices(monkeypatch):
    octahedron = SimplicialComplex.from_facets(
        6, [F(a, b, c) for a in (1, 2) for b in (3, 4) for c in (5, 6)])
    # two hollow triangles 123 and 345 sharing the vertex 3
    bowtie = SimplicialComplex.from_facets(
        5, [F(1, 2), F(1, 3), F(2, 3), F(3, 4), F(3, 5), F(4, 5)])
    # four triangles, each pair meeting in a vertex of its own: v facets of
    # v - 1 vertices, but on 6 vertices, not 4
    triangles = SimplicialComplex.from_facets(
        6, [F(1, 2, 3), F(1, 4, 5), F(2, 4, 6), F(3, 5, 6)])
    built = []

    def counted(cx, k, p, _fn=homology.boundary_matrix):
        built.append(k)
        return _fn(cx, k, p)

    monkeypatch.setattr(homology, "boundary_matrix", counted)
    for cx in (octahedron, bowtie, triangles):
        assert _strong_core(cx) == cx
        before = len(built)
        for p in PRIMES:
            assert reduced_betti(cx, p).betti == oracles.reduced_betti(
                oracles.complex_faces(cx), p)
        assert len(built) > before


def test_wide_hollow_simplex_passes_the_face_cap(tmp_path, capsys):
    # 21 vertices: 21 * 2^20 subsets in all, over the 2^20 face cap, yet
    # the closed form needs no face
    sphere = simplex_boundary(20)
    betti = (0,) * 19 + (1,)
    assert reduced_betti(sphere, 2).betti == betti
    assert not is_acyclic(sphere)
    lines = ["n=21"] + [" ".join(str(j) for j in range(1, 22) if j != i) for i in range(1, 22)]
    path = tmp_path / "hollow21.cx"
    path.write_text("\n".join(lines) + "\n")
    assert run(["homology", str(path)]) == 0
    assert f"F_2: reduced betti {betti}" in capsys.readouterr().out.splitlines()


def test_betti_matches_reference_implementation():
    complexes = [random_complex(5, seed) for seed in range(30)]
    complexes += [random_complex(7, seed) for seed in range(15)]
    # the boundary of the k-simplex is a (k-1)-sphere
    complexes += [simplex_boundary(k) for k in range(1, 9)]
    for cx in complexes:
        if cx.is_void or not any(cx.facets):
            continue
        faces = oracles.complex_faces(cx)
        for p in PRIMES + (7,):
            assert reduced_betti(cx, p).betti == oracles.reduced_betti(faces, p)


def test_boundary_matrix_matches_reference_entries():
    # the sparse columns spell out the dense matrix of the oracle's
    # definition: rows and columns in mask order, alternating signs mod p
    for seed in range(10):
        cx = random_complex(5, seed)
        if cx.is_void or cx.dimension() < 0:
            continue
        for p in PRIMES + (7,):
            for k in range(cx.dimension() + 1):
                rows, cols = cx.faces_of_dim(k - 1), cx.faces_of_dim(k)
                want = [[0] * len(cols) for _ in rows]
                for j, face in enumerate(cols):
                    for i, v in enumerate(face_members(face)):
                        want[rows.index(face & ~(1 << (v - 1)))][j] = (-1) ** i % p
                m = boundary_matrix(cx, k, p)
                assert m.shape == (len(rows), len(cols))
                assert m.tolist() == want
                assert rank_mod_p(m) == oracles.rank_mod_p(want, p)


def test_betti0_counts_components():
    for seed in range(30):
        cx = random_complex(6, seed)
        if cx.is_void or not any(cx.facets):
            continue
        comps = oracles.component_count(oracles.complex_faces(cx))
        for p in PRIMES:
            assert reduced_betti(cx, p).betti[0] == comps - 1


def test_cones_are_acyclic():
    for seed in range(20):
        base = random_complex(5, seed)
        if base.is_void:
            continue
        c = cone(base, base.ambient_n + 1)
        assert is_acyclic(c, PRIMES)
        for p in PRIMES:
            assert not any(reduced_betti(c, p).betti)


def test_euler_characteristic_consistency():
    # chi from the f-vector equals the alternating sum of unreduced Betti
    # numbers; in reduced terms chi = 1 + sum (-1)^k betti_k
    for seed in range(25):
        cx = random_complex(6, seed)
        if cx.is_void or not any(cx.facets):
            continue
        fv = cx.f_vector()
        chi = sum((-1) ** k * c for k, c in enumerate(fv))
        for p in (2, 3):
            bv = reduced_betti(cx, p).betti
            assert chi == 1 + sum((-1) ** k * b for k, b in enumerate(bv))


def test_is_acyclic_examples():
    assert is_acyclic(closure(Code(4, frozenset({0b1111}))), PRIMES)
    assert not is_acyclic(TRI_BDRY, (2,))
    assert is_acyclic(dunce_hat(), PRIMES)


def test_dunce_hat_betti_all_primes():
    for p in PRIMES:
        assert reduced_betti(dunce_hat(), p).betti == (0, 0, 0)


def test_collapse_steps_preserve_homology():
    for seed in range(20):
        cx = random_complex(5, seed)
        if cx.is_void or not any(cx.facets):
            continue
        for step in free_pairs(cx, mode="collapse")[:4]:
            after = elementary_collapse(cx, step)
            if after.is_void or not any(after.facets):
                continue
            for p in (2, 3):
                before = reduced_betti(cx, p).betti
                post = reduced_betti(after, p).betti
                pad = max(len(before), len(post))
                assert before + (0,) * (pad - len(before)) == post + (0,) * (
                    pad - len(post)
                )


def test_barycentric_subdivision_keeps_sphere():
    from convexcodes.complexes import order_complex

    bary = order_complex([f for f in TRI_BDRY.faces() if f])
    assert reduced_betti(bary, 2).betti == (0, 1)
    solid = order_complex(range(1, 8))  # the nonempty faces of the triangle 123
    assert is_acyclic(solid, PRIMES)


def test_face_order_keys_matrix_layout():
    # columns follow (dimension, mask) order, so the 2x1 edge matrix of a
    # bigger complex still lines up with its face lists
    cx = closure(Code(4, frozenset({face_of([1, 2, 3]), face_of([3, 4])})))
    m = boundary_matrix(cx, 1, 2)
    edges = cx.faces_of_dim(1)
    verts = cx.faces_of_dim(0)
    assert m.shape == (len(verts), len(edges))
    dense = m.tolist()
    for j, e in enumerate(edges):
        col = [dense[i][j] for i in range(len(verts))]
        assert sum(col) == 2 and all(
            (verts[i] & e != 0) == (col[i] == 1) for i in range(len(verts))
        )


def test_package_imports_and_runs_without_numpy():
    # numpy is not a runtime dependency: with it made unimportable, the
    # package still classifies a code and computes Betti numbers
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from convexcodes import analysis, homology, instances\n"
        "from convexcodes.complexes import closure\n"
        "report = analysis.classify(instances.c_n(5))\n"
        "assert report.locally_good.is_yes and len(report.mandatory_found) == 30\n"
        "assert homology.reduced_betti(closure(instances.c_n(4)), 2).betti == (0, 0, 1)\n"
        "assert 'numpy' not in [m for m in sys.modules if sys.modules[m] is not None]\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
