"""Untimed correctness probes run on every benchmark input.

Each probe returns None when the input passes and a one-line message when
it fails.  A failed probe marks its input as failed in ``failed_frac``;
the input's timing still stands.

One failure is a recorded defect of the package rather than of the
benchmark: a file that declares n >= 10 and holds a singleton word 10 or
11 is written as the lone token ``10`` or ``11``, which ``parse_code``
reads as a binary row, so the file fails with "binary and integer word
forms mixed" or reads back as a different code.  The round-trip probe
still counts it as a failed input, and tags its message with
``KNOWN_DEFECT`` so the run can tell it from a new failure.
"""

from __future__ import annotations

from convexcodes import analysis, collapse, complexes, fileformat
from convexcodes.errors import ConvexCodesError
from convexcodes.verdicts import R_COLLAPSE_CERT, R_NONZERO_BETTI

KNOWN_DEFECT = "known defect"


def great_implies_good(report) -> str | None:
    """Locally great implies locally good (the paper's verdict chain)."""
    if report.locally_great.is_yes and not report.locally_good.is_yes:
        return f"great=Yes but good={report.locally_good.value.value}"
    return None


def good_iff_goodcover(report, cover) -> str | None:
    """Locally good holds exactly when the open realization is a good cover."""
    if report.locally_good.value is not cover.value:
        return (f"locally_good={report.locally_good.value.value} but "
                f"good_cover_check={cover.value.value}")
    return None


def realization_matches(code, realized) -> str | None:
    """The open realization reproduces the code minus the empty word."""
    if realized.ambient_n != code.ambient_n or realized.words != code.nonempty_words():
        return "realized_code_from_U differs from the code minus the empty word"
    return None


def sphere_verdicts(code, report) -> str | None:
    """For c_n, every nonempty proper face is mandatory and good = great = Yes."""
    full = (1 << code.ambient_n) - 1
    if frozenset(range(1, full)) != report.mandatory_found or report.mandatory_unknown:
        return "mandatory set is not every nonempty proper face"
    if not (report.locally_good.is_yes and report.locally_great.is_yes):
        return "c_n is not locally good and locally great"
    return None


def betti_matches(cx, bv, oracle) -> str | None:
    """A nonzero-betti certificate agrees with the independent oracle."""
    expected = oracle.reduced_betti(oracle.complex_faces(cx), bv.field_characteristic)
    if tuple(bv.betti) != tuple(expected) or bv.is_zero():
        return f"betti {bv.betti} over F_{bv.field_characteristic}, oracle says {expected}"
    return None


def collapse_replays(cx, steps) -> str | None:
    """A collapse certificate replays legally down to a single point."""
    if not collapse.certifies_collapse(cx, steps):
        return "collapse certificate does not replay to a point"
    return None


def search_certificates(code, report, budget, oracle) -> str | None:
    """Re-derive every facet-intersection link verdict and audit each certificate.

    Every Yes collapse certificate must replay, every nonzero-betti
    certificate must match the oracle, and the faces proved No must be
    exactly the report's mandatory set.  The report's own locally-good
    witness, when it carries Betti numbers, is checked the same way.
    """
    cx = complexes.closure(code)
    memo: dict = {}
    proved_no = set()
    for sigma in sorted(analysis.facet_intersections(cx), key=lambda f: (f.bit_count(), f)):
        lk = complexes.link(cx, sigma)
        st = analysis.contractibility_status(lk, budget, memo)
        if st.reason == R_COLLAPSE_CERT:
            problem = collapse_replays(lk, st.certificate)
        elif st.reason == R_NONZERO_BETTI:
            problem = betti_matches(lk, st.certificate, oracle)
        else:
            problem = None
        if problem:
            return f"link of {complexes.face_label(sigma)}: {problem}"
        if st.is_no:
            proved_no.add(sigma)
    if proved_no != report.mandatory_found:
        return "mandatory set differs from the re-derived No links"
    good = report.locally_good
    if good.reason == R_NONZERO_BETTI:
        problem = betti_matches(complexes.link(cx, good.witness), good.certificate, oracle)
        if problem:
            return f"locally_good witness: {problem}"
    return None


def _ambiguous_line(text: str) -> bool:
    # A lone multi-character token of 0s and 1s is read as a binary row.
    return any(len(line) > 1 and set(line) <= {"0", "1"} for line in text.splitlines()[1:])


def roundtrip(code) -> str | None:
    """emit_code then parse_code gives back the same code."""
    text = fileformat.emit_code(code)
    try:
        back = fileformat.parse_code(text)
        problem = None if back == code else "parsed code differs from the emitted one"
    except ConvexCodesError as exc:
        problem = f"{type(exc).__name__}: {exc}"
    if problem and _ambiguous_line(text):
        return f"{KNOWN_DEFECT}: {problem} (label 10 or 11 read as a binary row)"
    return problem
