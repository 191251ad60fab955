"""Acceptance battery: one test and one printed verdict line per criterion."""

import json
import subprocess
import sys
import time

from convexcodes.analysis import (
    classify,
    cone_minus_apex,
    is_locally_good,
    is_locally_great,
)
from convexcodes.collapse import certifies_collapse, free_pairs, is_collapsible
from convexcodes.complexes import Code, SimplicialComplex, closure, face_of, link, order_complex
from convexcodes.homology import is_acyclic, reduced_betti
from convexcodes.instances import (
    all_codes,
    all_facet_antichains,
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
from convexcodes.realization import (
    good_cover_check,
    realized_code_from_U,
    realized_code_from_closures,
)
from convexcodes.verdicts import R_TREE_TEST, Verdict

from . import oracles


def F(digits):
    return face_of(int(c) for c in digits)


def report(num, ok, text):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_landmark_example_classifications():
    checks = []
    t0 = time.perf_counter()
    for code, expect in [
        (intro_code(), ("good", Verdict.YES)),
        (two_edge_overlap_code(), ("good", Verdict.YES)),
        (broken_line_code(), ("good", Verdict.NO, F("3"))),
        (connected_not_goodcover_code(), ("good", Verdict.NO, F("4"))),
    ]:
        t = time.perf_counter()
        st = is_locally_good(code)
        dt = time.perf_counter() - t
        ok = st.value is expect[1] and dt < 1.0
        if len(expect) == 3:
            ok = ok and st.witness == expect[2]
        checks.append(ok)
    t = time.perf_counter()
    rep = classify(counterexample_code())
    dt = time.perf_counter() - t
    checks.append(
        rep.locally_good.value is Verdict.YES
        and rep.locally_great.value is Verdict.YES
        and not rep.max_intersection_complete
        and dt < 1.0
    )
    total = time.perf_counter() - t0
    report(1, all(checks), f"5 example classifications match, {total:.3f}s total")


def test_criterion_02_locally_good_iff_good_cover():
    t0 = time.perf_counter()
    counts = {3: 0, 4: 0}
    unknowns = mismatches = 0
    for n in counts:
        for code in all_codes(n):
            counts[n] += 1
            a = is_locally_good(code)
            b = good_cover_check(code)
            if Verdict.UNKNOWN in (a.value, b.value):
                unknowns += 1
            if (a.value is Verdict.YES) != (b.value is Verdict.YES):
                mismatches += 1
    dt = time.perf_counter() - t0
    report(
        2,
        counts == {3: 127, 4: 32767} and unknowns == 0 and mismatches == 0 and dt < 30.0,
        f"locally-good == good-cover on all {counts[3]} 3-label and {counts[4]} "
        f"4-label codes, {unknowns} unknowns, {mismatches} mismatches, {dt:.2f}s",
    )


def test_criterion_03_realization_reproduces_code():
    mismatches = 0
    total = 0
    for code in all_codes(3):
        total += 1
        if realized_code_from_U(code).words != code.words - {0}:
            mismatches += 1
    for seed in range(500):
        code = random_code(5, seed)
        total += 1
        if realized_code_from_U(code).words != code.words - {0}:
            mismatches += 1
    report(
        3,
        total == 627 and mismatches == 0,
        f"open realization reproduced {total} codes with {mismatches} mismatches",
    )


def test_criterion_04_facet_intersection_reduction():
    mismatches = 0
    total = 0
    for code in all_codes(3):
        total += 1
        if is_locally_good(code).value is not oracles.naive_locally_good(code)[0]:
            mismatches += 1
    for n, seeds in ((4, range(150)), (5, range(150))):
        for seed in seeds:
            code = random_code(n, seed)
            total += 1
            if is_locally_good(code).value is not oracles.naive_locally_good(code)[0]:
                mismatches += 1
    report(
        4,
        total == 427 and mismatches == 0,
        f"restricted and exhaustive locally-good verdicts agree on {total} codes",
    )


def test_criterion_05_engine_equivalence():
    disagreements = unknowns = total = 0
    memo_a, memo_b = {}, {}
    seed = 0
    while total < 200:
        cx = random_complex(6, seed)
        seed += 1
        if cx.is_void:
            continue
        total += 1
        a = is_collapsible(cx, "collapse", memo=memo_a)
        b = is_collapsible(cx, "strict", memo=memo_b)
        if a.status is not b.status:
            disagreements += 1
        if Verdict.UNKNOWN in (a.status, b.status):
            unknowns += 1
    antichains = 0
    for cx in all_facet_antichains(4):
        antichains += 1
        a = is_collapsible(cx, "collapse", memo=memo_a)
        b = is_collapsible(cx, "strict", memo=memo_b)
        if a.status is not b.status:
            disagreements += 1
        if Verdict.UNKNOWN in (a.status, b.status):
            unknowns += 1
    report(
        5,
        total >= 200 and antichains > 100 and disagreements == 0 and unknowns == 0,
        f"both engines agree on {total} random + {antichains} antichain complexes",
    )


def test_criterion_06_dunce_hat_battery():
    dh = dunce_hat()
    no_steps = free_pairs(dh, mode="collapse") == [] and free_pairs(dh, mode="strict") == []
    is_collapsible(dh)  # warm the import and memo paths before timing
    t0 = time.perf_counter()
    out = is_collapsible(dh)
    dt = time.perf_counter() - t0
    quick_no = out.status is Verdict.NO and dt < 0.001
    acyclic = is_acyclic(dh, (2, 3, 5))
    gadget = cone_minus_apex(dh)
    apex = face_of([dh.ambient_n + 1])
    great = is_locally_great(gadget)
    good = is_locally_good(gadget)
    gadget_ok = (
        great.value is Verdict.NO
        and great.witness == apex
        and good.value is Verdict.UNKNOWN
    )
    report(
        6,
        no_steps and quick_no and acyclic and gadget_ok,
        f"dunce hat: no free pairs, No in {dt*1e6:.0f}us, acyclic, "
        "gadget great=No(apex)/good=Unknown",
    )


def test_criterion_07_homology_goldens_and_sphere_codes():
    tri_bdry = SimplicialComplex.from_facets(3, [F("12"), F("13"), F("23")])
    ok = reduced_betti(tri_bdry, 2).betti == (0, 1)
    ok = ok and reduced_betti(closure(c_n(4)), 2).betti == (0, 0, 1)
    ok = ok and reduced_betti(rp2(), 2).betti == (0, 1, 1)
    ok = ok and reduced_betti(rp2(), 3).betti == (0, 0, 0)
    for n in range(2, 6):
        simplex = closure(Code(n, frozenset({(1 << n) - 1})))
        ok = ok and is_acyclic(simplex, (2, 3, 5))
    for seed in range(10):
        base = random_complex(4, seed)
        if base.is_void:
            continue
        from convexcodes.complexes import cone

        ok = ok and is_acyclic(cone(base, 5), (2, 3, 5))
    sphere_codes = all(
        is_locally_good(c_n(n)).value is Verdict.YES for n in range(3, 7)
    )
    report(
        7,
        ok and sphere_codes,
        "homology goldens and locally-good sphere-boundary codes for n=3..6",
    )


def test_criterion_08_certificates_and_witnesses_replay():
    certs = bad_certs = 0
    for seed in range(120):
        cx = random_complex(5, seed)
        if cx.is_void:
            continue
        out = is_collapsible(cx)
        if out.status is Verdict.YES:
            certs += 1
            if not certifies_collapse(cx, out.certificate):
                bad_certs += 1
    witnesses = bad_witnesses = 0

    def check_negative(faces):
        nonempty = {f for f in faces if f}
        if any(any(oracles.reduced_betti(faces, p)) for p in (2, 3, 5)):
            return True
        verts = sum(1 for f in nonempty if len(f) == 1)
        edges = sum(1 for f in nonempty if len(f) == 2)
        return oracles.component_count(faces) != 1 or edges != verts - 1

    for seed in range(120):
        code = random_code(4, seed)
        st = is_locally_good(code)
        if st.value is Verdict.NO:
            witnesses += 1
            lk = link(closure(code), st.witness)
            if not check_negative(oracles.complex_faces(lk)):
                bad_witnesses += 1
        gc = good_cover_check(code)
        if gc.value is Verdict.NO:
            witnesses += 1
            gamma = {w for w in code.words if gc.witness & ~w == 0 and w}
            if not check_negative(oracles.complex_faces(order_complex(gamma))):
                bad_witnesses += 1
    report(
        8,
        certs > 30 and bad_certs == 0 and witnesses > 10 and bad_witnesses == 0,
        f"{certs} collapse certificates and {witnesses} No witnesses all re-verified",
    )


def test_criterion_09_closed_variant_regression():
    trap = Code(3, frozenset({F("1"), F("12"), F("13")}))
    open_words = realized_code_from_U(trap).words
    closed_words = realized_code_from_closures(trap).words
    report(
        9,
        open_words == trap.words and closed_words == trap.words | {F("123")},
        "open extraction reproduces {1,12,13}; closed extraction adds 123",
    )


def test_criterion_10_deterministic_json(tmp_path):
    path = tmp_path / "cex.code"
    gen = subprocess.run(
        [sys.executable, "-m", "convexcodes.cli", "generate", "counterexample",
         "-o", str(path)],
        capture_output=True,
    )
    cmd = [
        sys.executable, "-m", "convexcodes.cli",
        "classify", "--json", "--deterministic", "--seed", "7", str(path),
    ]
    a = subprocess.run(cmd, capture_output=True, text=True)
    b = subprocess.run(cmd, capture_output=True, text=True)
    same = (
        gen.returncode == 0
        and a.returncode == b.returncode == 0
        and a.stdout == b.stdout
        and json.loads(a.stdout)["schema_version"] == "1"
    )
    report(10, same, "two deterministic classify runs emit byte-identical JSON")
