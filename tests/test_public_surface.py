"""The package's public names: exactly the pinned set, each one importable."""

import importlib
from pathlib import Path

import convexcodes
from convexcodes.complexes import SimplicialComplex

PUBLIC = (
    "AnalysisReport",
    "BettiVector",
    "Budget",
    "Code",
    "CollapseOutcome",
    "CollapseStep",
    "ConvexCodesError",
    "SimplicialComplex",
    "TriStatus",
    "Verdict",
    "__version__",
    "boundary_matrix",
    "certifies_collapse",
    "classify",
    "closure",
    "cone",
    "cone_minus_apex",
    "contractibility_status",
    "elementary_collapse",
    "face_label",
    "face_members",
    "face_of",
    "facet_intersections",
    "free_pairs",
    "good_cover_check",
    "is_acyclic",
    "is_collapsible",
    "is_locally_good",
    "is_locally_great",
    "kernel_name",
    "link",
    "mandatory_codewords",
    "order_complex",
    "realized_code_from_U",
    "realized_code_from_closures",
    "reduced_betti",
    "replay_certificate",
    "v_region_contractibility",
)

# Names that nothing but their own tests read; they must not come back.
REMOVED = (
    "ArrangementCell",
    "enumerate_cells",
    "realized_word_at",
    "realized_word_at_closed",
    "maximal_codewords",
    "is_k_sparse",
    "simplex_faces",
    "is_max_intersection_complete",
    "restriction",
    "MODES",
    "_check_mode",
)

MODULES = ("analysis", "cli", "collapse", "complexes", "errors", "fileformat",
           "homology", "instances", "realization", "verdicts")


def test_all_is_pinned_and_resolves():
    assert tuple(sorted(convexcodes.__all__)) == PUBLIC
    assert len(set(convexcodes.__all__)) == len(convexcodes.__all__)
    for name in PUBLIC:
        assert getattr(convexcodes, name) is not None, name


def test_removed_names_are_gone():
    modules = [convexcodes] + [importlib.import_module(f"convexcodes.{m}") for m in MODULES]
    for mod in modules:
        for name in REMOVED:
            assert not hasattr(mod, name), (mod.__name__, name)
    for method in ("num_faces", "vertices"):
        assert not hasattr(SimplicialComplex, method), method


def test_readme_library_block_runs(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    scope = {}
    exec(block, scope)
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["No", "(2, 3)"] and lines[2].startswith("Yes ")
    assert len(lines) == 3
    cx = convexcodes.closure(scope["code"])
    assert convexcodes.certifies_collapse(cx, scope["out"].certificate)
