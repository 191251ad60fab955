"""Command-line front end: outputs, exit codes, JSON schema, determinism."""

import json
import os
import shlex
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest

from convexcodes import cli
from convexcodes.cli import run
from convexcodes.errors import InternalInconsistency
from convexcodes.complexes import Code
from convexcodes.fileformat import emit_code, parse_code, parse_complex


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Generated instance files shared by the tests below."""
    d = tmp_path_factory.mktemp("cli")
    paths = {}
    for name, fname in [
        ("intro-code", "intro.code"),
        ("counterexample", "cex.code"),
        ("connected-not-goodcover", "cng.code"),
        ("dunce-hat", "dunce.cx"),
        ("rp2", "rp2.cx"),
    ]:
        path = d / fname
        assert run(["generate", name, "-o", str(path)]) == 0
        paths[name] = str(path)
    gadget = d / "gadget.code"
    assert run(["generate", "cone-minus-apex", paths["dunce-hat"], "-o", str(gadget)]) == 0
    paths["gadget"] = str(gadget)
    broken = d / "broken.code"
    broken.write_text("13\n23\n1\n")
    paths["broken-line"] = str(broken)
    paths["dir"] = str(d)
    return paths


def test_classify_human_report(files, capsys):
    assert run(["classify", files["counterexample"]]) == 0
    out = capsys.readouterr().out
    assert "locally_good: Yes" in out
    assert "locally_great: Yes" in out
    assert "max_intersection_complete: false" in out
    assert "sparsity: 4" in out


@pytest.mark.parametrize("code", [Code(3, frozenset({0b111, 1})),
                                  Code(40, frozenset({(1 << 40) - 1, 1}))])
def test_classify_reports_one_yes_reason_for_missing_cone_faces(code, capsys, tmp_path):
    path = tmp_path / "missing-cone-faces.code"
    path.write_text(emit_code(code))
    assert run(["classify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "locally_good: Yes [all-links-verified]\n" in out
    assert "locally_great: Yes [all-links-verified]\n" in out


def test_classify_witness_report(files, capsys):
    assert run(["classify", files["connected-not-goodcover"]]) == 0
    out = capsys.readouterr().out
    assert "locally_good: No" in out and "witness 4" in out


def test_classify_strict_exits(files):
    assert run(["classify", "--strict", files["counterexample"]]) == 0
    # a No anywhere beats an Unknown: the gadget is great-No, good-Unknown
    assert run(["classify", "--strict", files["gadget"]]) == 1
    assert run(["classify", "--strict", files["broken-line"]]) == 1


def test_classify_json_validates_against_schema(files, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(
        resources.files("convexcodes").joinpath("schemas/report-v1.json").read_text()
    )
    for name in ("counterexample", "broken-line", "gadget"):
        assert run(["classify", "--json", "--deterministic", files[name]]) == 0
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, schema)
        assert report["schema_version"] == "1"
        assert report["timings"] is None


def test_classify_json_timings_without_deterministic(files, capsys):
    assert run(["classify", "--json", files["counterexample"]]) == 0
    report = json.loads(capsys.readouterr().out)
    assert isinstance(report["timings"]["total_s"], float)


def test_classify_json_fields(files, capsys):
    run(["classify", "--json", "--deterministic", files["broken-line"]])
    report = json.loads(capsys.readouterr().out)
    assert report["locally_good"]["value"] == "No"
    assert report["locally_good"]["witness"] == [3]
    assert report["input"]["ambient_n"] == 3
    assert report["input"]["word_count"] == 3
    assert report["sparsity"] == 2
    assert report["max_intersection_complete"] is False


def test_deterministic_json_is_byte_identical(files):
    cmd = [
        sys.executable, "-m", "convexcodes.cli",
        "classify", "--json", "--deterministic", "--seed", "7",
        files["counterexample"],
    ]
    a = subprocess.run(cmd, capture_output=True, text=True)
    b = subprocess.run(cmd, capture_output=True, text=True)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout and a.stdout.strip()


def test_mandatory_output(files, capsys):
    assert run(["mandatory", files["intro-code"]]) == 0
    out = capsys.readouterr().out
    assert "[present]" in out and "MISSING" not in out
    assert run(["mandatory", "--strict", files["connected-not-goodcover"]]) == 1
    out = capsys.readouterr().out
    assert "mandatory 4 [MISSING]" in out


def test_mandatory_strict_exits_on_the_locally_good_verdict(files, capsys, tmp_path):
    # the full cone code has every face, the apex 9 too, though the apex
    # link (the dunce hat) stays undecided: the code is locally good
    full = tmp_path / "full.code"
    full.write_text(Path(files["gadget"]).read_text() + "9\n")
    assert run(["classify", "--strict", str(full)]) == 0
    assert "locally_good: Yes [nothing-to-check]" in capsys.readouterr().out.splitlines()
    assert run(["mandatory", "--strict", str(full)]) == 0
    assert "undecided 9" in capsys.readouterr().out.splitlines()
    # the gadget lacks the undecided 9, so its locally-good verdict is Unknown
    assert run(["mandatory", "--strict", files["gadget"]]) == 2


def test_links_output(files, capsys, tmp_path):
    assert run(["links", "--face", "12", files["intro-code"]]) == 0
    out = capsys.readouterr().out
    assert "link of 12" in out and "contractible: Yes" in out
    # 23 is the intro code's mandatory word: its link is two points
    assert run(["links", "--face", "23", files["intro-code"]]) == 0
    out = capsys.readouterr().out
    assert "contractible: No" in out and "components=2" in out
    # the apex's link is the dunce hat: acyclic, and the one search it gets
    # proves it not collapsible after a single node
    assert run(["links", "--face", "9", "--strict", files["gadget"]]) == 2
    out = capsys.readouterr().out
    assert "contractible: Unknown [inconclusive]; nodes_explored=1\n" in out
    assert run(["links", "--json", "--face", "9", files["gadget"]]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["contractible"]["certificate"] == {"kind": "summary", "nodes_explored": 1}
    # two points: each one's link holds the empty face alone
    two_points = tmp_path / "two-points.code"
    two_points.write_text("n=2\n1\n2\n")
    assert run(["links", "--face", "1", str(two_points)]) == 0
    assert "link of 1: facets (empty face only)\n" in capsys.readouterr().out
    assert run(["links", "--json", "--face", "1", str(two_points)]) == 0
    assert json.loads(capsys.readouterr().out)["link_facets"] == [[]]


def test_every_certificate_kind_renders():
    from convexcodes.collapse import CollapseStep
    from convexcodes.homology import BettiVector

    steps = (CollapseStep(0b11, 0b111), CollapseStep(0b10, 0b110))
    betti = BettiVector(2, (0, 1))
    cases = [
        (None, None, ""),
        (betti, {"kind": "betti", "field": 2, "betti": [0, 1]},
         "reduced betti (0, 1) over F_2"),
        (0b101, {"kind": "face", "face": [1, 3]}, "apex 13"),
        ({"vertices": 2, "edges": 0, "components": 2},
         {"kind": "summary", "components": 2, "edges": 0, "vertices": 2},
         "components=2 edges=0 vertices=2"),
        ({"nodes_explored": 1}, {"kind": "summary", "nodes_explored": 1}, "nodes_explored=1"),
        (steps, {"kind": "collapse-steps", "steps": [{"sigma": [1, 2], "tau": [1, 2, 3]},
                                                     {"sigma": [2], "tau": [2, 3]}]},
         "steps (12,123) (2,23)"),
        ((), {"kind": "collapse-steps", "steps": []}, "already a point"),
    ]
    for cert, as_json, as_text in cases:
        assert cli._cert_json(cert) == as_json
        assert cli._cert_text(cert, 3) == as_text
    # on 10 or more labels every face is braced
    assert cli._cert_text(0b101, 12) == "apex {1,3}"
    assert cli._cert_text(steps, 12) == "steps ({1,2},{1,2,3}) ({2},{2,3})"


def test_faces_printed_on_12_labels_read_back_through_face(capsys, tmp_path):
    # the face {1,2} and the label 12 print apart, and links reads each back
    path = tmp_path / "twelve.code"
    path.write_text("n=12\n1 2 3\n1 2 4\n3 4 12\n1 3\n1 4\n2 3\n2 4\n3\n4\n12\n")
    assert run(["classify", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "locally_good: No [tree-test] witness {1,2}; components=2 edges=0 vertices=2" in out
    assert run(["mandatory", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines] == ["{3}", "{4}", "{1,2}", "{1,2,3}",
                                                  "{1,2,4}", "{3,4,12}"]
    for line in lines:
        label = line.split()[1]
        assert run(["links", "--face", label, str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith(f"link of {label}: facets ")
        assert out[1].startswith("contractible: No ")  # a mandatory face's link
    assert run(["links", "--face", "{12}", str(path)]) == 0
    assert capsys.readouterr().out.startswith("link of {12}: facets {3,4}\n")


def test_links_rejects_non_faces(files, capsys):
    assert run(["links", "--face", "0", files["intro-code"]]) == 65
    capsys.readouterr()
    assert run(["links", "--face", "15", files["intro-code"]]) == 65


def test_collapse_command(files, capsys, tmp_path):
    assert run(["collapse", files["dunce-hat"]]) == 0
    out = capsys.readouterr().out
    assert "collapsible: No" in out and "1 nodes" in out
    assert run(["collapse", "--strict", files["dunce-hat"]]) == 1
    assert run(["collapse", "--engine", "collapse", files["dunce-hat"]]) == 0
    capsys.readouterr()
    # the certificate line prints each step as (sigma,tau)
    triangle = tmp_path / "triangle.cx"
    triangle.write_text("n=3\n123\n")
    assert run(["collapse", str(triangle)]) == 0
    assert "certificate: steps (12,123) (2,23) (1,13)\n" in capsys.readouterr().out


def test_collapse_budget_unknown(files, capsys, tmp_path):
    path = tmp_path / "tripath.cx"
    path.write_text("123\n345\n567\n")
    assert run(["collapse", "--budget", "1", "--strict", str(path)]) == 2
    out = capsys.readouterr().out
    assert "Unknown" in out and "budget" in out


def test_homology_command(files, capsys):
    assert run(["homology", files["rp2"]]) == 0
    out = capsys.readouterr().out
    assert "F_2: reduced betti (0, 1, 1)" in out
    assert "F_3: reduced betti (0, 0, 0)" in out
    assert run(["homology", "--json", "--primes", "2,3", files["rp2"]]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["betti"]["2"] == [0, 1, 1] and data["betti"]["3"] == [0, 0, 0]


def test_homology_builds_the_core_once(capsys, tmp_path, monkeypatch):
    from convexcodes import homology

    reductions = []

    def recording(cx, _fn=homology._strong_core):
        core, deletions = _fn(cx)
        if core is not cx:
            reductions.append(cx.facets)
        return core, deletions

    monkeypatch.setattr(homology, "_strong_core", recording)
    monkeypatch.setattr(cli, "_strong_core", recording)
    # RP^2 with its triangle 125 coned over a dominated vertex 7
    path = tmp_path / "rp2-plus.cx"
    path.write_text("1257\n126\n134\n135\n146\n234\n236\n245\n356\n456\n")
    assert run(["homology", str(path)]) == 0
    assert len(reductions) == 1
    # each vector is padded to the complex's dimension, 3
    assert capsys.readouterr().out.splitlines() == [
        "F_2: reduced betti (0, 1, 1, 0)",
        "F_3: reduced betti (0, 0, 0, 0)",
        "F_5: reduced betti (0, 0, 0, 0)",
    ]


def test_homology_large_prime_finishes(files, capsys, tmp_path):
    path = tmp_path / "tri.cx"
    path.write_text("12\n13\n23\n")
    assert run(["homology", "--primes", "1000000000000000003", str(path)]) == 0
    assert "F_1000000000000000003: reduced betti (0, 1)" in capsys.readouterr().out


def test_homology_of_a_wide_simplex_is_fast(capsys, tmp_path):
    # 2^30 faces; the strong-collapse core is one vertex
    path = tmp_path / "simplex30.cx"
    path.write_text(" ".join(str(v) for v in range(1, 31)) + "\n")
    start = time.perf_counter()
    assert run(["homology", str(path)]) == 0
    assert time.perf_counter() - start < 1
    assert f"F_2: reduced betti {(0,) * 30}" in capsys.readouterr().out


def test_realize_verify_is_no_command(files, capsys):
    # the realized code is the code's nonzero words by definition, so no
    # command reports it
    with pytest.raises(SystemExit) as e:
        run(["realize-verify", files["intro-code"]])
    assert e.value.code == 64
    assert "invalid choice: 'realize-verify'" in capsys.readouterr().err


def test_goodcover_command(files, capsys):
    assert run(["goodcover", files["counterexample"]]) == 0
    assert "good_cover: Yes" in capsys.readouterr().out
    assert run(["goodcover", "--strict", files["connected-not-goodcover"]]) == 1
    out = capsys.readouterr().out
    assert "good_cover: No" in out and "witness 4" in out


def test_generate_all_names_parse_back(files, capsys, tmp_path):
    code_names = ["intro-code", "counterexample", "connected-not-goodcover"]
    for name in code_names:
        assert run(["generate", name]) == 0
        parse_code(capsys.readouterr().out)
    for name in ["dunce-hat", "rp2"]:
        assert run(["generate", name]) == 0
        parse_complex(capsys.readouterr().out)
    assert run(["generate", "c-n", "4"]) == 0
    code = parse_code(capsys.readouterr().out)
    assert code.ambient_n == 4 and len(code.words) == 15
    out = tmp_path / "c3.code"
    assert run(["generate", "c-n", "3", "-o", str(out)]) == 0
    assert parse_code(out.read_text()).ambient_n == 3


def test_generate_errors(files, capsys):
    assert run(["generate", "c-n"]) == 64
    capsys.readouterr()
    assert run(["generate", "cone-minus-apex", files["dir"] + "/nosuch.cx"]) == 65
    capsys.readouterr()
    with pytest.raises(SystemExit) as e:
        run(["generate", "not-a-name"])
    assert e.value.code == 64


@pytest.mark.parametrize("count", ["0", "17", "20", "x"])
def test_generate_bad_label_count_is_a_usage_error(capsys, count):
    assert run(["generate", "c-n", count]) == 64
    err = capsys.readouterr().err
    assert err.startswith("generate: ") and err.count("\n") == 1


def test_generate_unwritable_output_exits_73(capsys, tmp_path):
    assert run(["generate", "intro-code", "-o", str(tmp_path / "nosuch" / "f")]) == 73
    err = capsys.readouterr().err
    assert err.startswith("generate: cannot write") and err.count("\n") == 1


def test_goodcover_beyond_the_order_complex_limit(capsys, tmp_path):
    # c_n(9) without the word 1: the missing face 1 has 254 codewords above it
    path = tmp_path / "c9-missing-1.code"
    path.write_text(emit_code(Code(9, frozenset(range(511)) - {1})))
    assert run(["goodcover", str(path)]) == 65
    assert capsys.readouterr().err.startswith("error: 254 codewords contain the face 1,")


def test_goodcover_beyond_the_face_enumeration_cap(capsys, tmp_path):
    path = tmp_path / "wide.code"
    path.write_text(emit_code(Code(40, frozenset({(1 << 40) - 1, 1}))))
    start = time.perf_counter()
    # both meets of the two words are codewords, so no face is listed
    assert run(["goodcover", str(path)]) == 0
    assert time.perf_counter() - start < 1
    assert "good_cover: Yes [all-regions-verified]" in capsys.readouterr().out


def test_goodcover_codeword_faces_need_no_order_complex(capsys, tmp_path):
    # every face of c_n(8) is a codeword, some with 127 codewords above them
    path = tmp_path / "c8.code"
    assert run(["generate", "c-n", "8", "-o", str(path)]) == 0
    assert run(["goodcover", "--strict", str(path)]) == 0
    assert "good_cover: Yes [all-regions-verified]" in capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(set(cli._INSTANCES) - {"c-n", "cone-minus-apex"}))
def test_generate_stray_argument_is_a_usage_error(capsys, tmp_path, name):
    out = tmp_path / "f"
    assert run(["generate", name, "bogus", "-o", str(out)]) == 64
    err = capsys.readouterr().err
    assert err == f"generate: {name} takes no argument, not 'bogus'\n"
    assert not out.exists()


# The flags each analysis command reads; it takes no other.
TAKES = {
    "classify": {"--budget", "--seed", "--primes", "--json", "--deterministic", "--strict"},
    "mandatory": {"--budget", "--seed", "--primes", "--json", "--strict"},
    "goodcover": {"--budget", "--seed", "--primes", "--json", "--strict"},
    "links": {"--budget", "--seed", "--primes", "--json", "--strict"},
    "collapse": {"--budget", "--seed", "--json", "--strict"},
    "homology": {"--primes", "--json"},
}
FLAG_VALUES = {"--budget": ["50"], "--seed": ["3"], "--primes": ["2,3"]}


def _argv(files, tmp_path, command):
    """The command on an input it answers without a usage error."""
    if command in ("collapse", "homology"):
        path = tmp_path / "collapsible.cx"
        path.write_text("123\n34\n")
        return [command, str(path)]
    return [command, files["intro-code"]] + (["--face", "1"] if command == "links" else [])


@pytest.mark.parametrize("command", sorted(TAKES))
def test_each_command_takes_only_the_flags_it_reads(files, capsys, tmp_path, command):
    argv = _argv(files, tmp_path, command)
    for flag in sorted(set().union(*TAKES.values())):
        with_flag = argv + [flag] + FLAG_VALUES.get(flag, [])
        if flag in TAKES[command]:
            assert run(with_flag) == 0, flag
        else:
            with pytest.raises(SystemExit) as e:
                run(with_flag)
            assert e.value.code == 64, flag
            assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(TAKES))
def test_every_json_report_carries_the_envelope(files, capsys, tmp_path, command):
    assert run(_argv(files, tmp_path, command) + ["--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema_version"] == "1"
    if command in ("collapse", "homology"):
        assert "input" not in report
        assert report["facets"] == [[3, 4], [1, 2, 3]]
    else:
        assert "facets" not in report
        code = parse_code(Path(files["intro-code"]).read_text())
        assert report["input"]["word_count"] == len(code.words)


@pytest.mark.parametrize("command", sorted(c for c in TAKES if "--budget" in TAKES[c]))
def test_budget_must_be_a_node_count(files, capsys, tmp_path, command):
    argv = _argv(files, tmp_path, command)
    for bad in ("-3", "-1", "x"):
        with pytest.raises(SystemExit) as e:
            run(argv + ["--budget", bad])
        assert e.value.code == 64, bad
        assert "--budget" in capsys.readouterr().err
    assert run(argv + ["--budget", "0"]) == 0


def test_readme_command_lines_run(capsys, tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("convexcodes ")]
    assert len(lines) >= 10
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert run(shlex.split(line)[1:]) == 0, line
        capsys.readouterr()


def test_usage_and_parse_errors(files, capsys, tmp_path):
    with pytest.raises(SystemExit) as e:
        run(["--bogus"])
    assert e.value.code == 64
    capsys.readouterr()
    bad = tmp_path / "bad.code"
    bad.write_text("x\n")
    assert run(["classify", str(bad)]) == 65
    capsys.readouterr()
    assert run(["classify", str(tmp_path / "missing.code")]) == 65


@pytest.mark.parametrize("primes", ["a", "4", "", "561", str(2**127 - 1)])
def test_bad_primes_are_usage_errors(files, capsys, primes):
    for argv in (["classify", files["intro-code"]], ["homology", files["rp2"]]):
        with pytest.raises(SystemExit) as e:
            run(argv + ["--primes", primes])
        assert e.value.code == 64
        assert "--primes" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["1 x\n", "1 2.5\n", "1\u00b2\n"])
def test_malformed_tokens_exit_65(capsys, tmp_path, text):
    bad = tmp_path / "bad.code"
    bad.write_text(text, encoding="utf-8")
    assert run(["classify", str(bad)]) == 65
    assert capsys.readouterr().err.startswith("parse error: line 1: unreadable token")


@pytest.mark.parametrize("command", ["classify", "mandatory", "goodcover", "collapse",
                                     "homology"])
def test_separator_only_lines_exit_65(capsys, tmp_path, command):
    bad = tmp_path / "bad.txt"
    bad.write_text("12\n , \n")
    assert run([command, str(bad)]) == 65
    assert capsys.readouterr().err.startswith("parse error: line 2: no labels")


@pytest.mark.parametrize("face", ["", ",", " , "])
def test_links_face_without_labels_is_a_bad_face(files, capsys, face):
    assert run(["links", "--face", face, files["intro-code"]]) == 65
    assert capsys.readouterr().err.startswith("bad face: line 1: no labels")


def test_undecodable_bytes_exit_65(capsys, tmp_path):
    bad = tmp_path / "bad.code"
    bad.write_bytes(b"12\n\xff\n")
    assert run(["classify", str(bad)]) == 65
    assert capsys.readouterr().err.startswith("error: cannot read")


def test_entry_point_subprocess(files):
    out = subprocess.run(
        [sys.executable, "-m", "convexcodes.cli", "classify", files["intro-code"]],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert "locally_good: Yes" in out.stdout


@pytest.mark.parametrize("exc", [RecursionError("maximum recursion depth exceeded"),
                                 InternalInconsistency("great Yes but good No")])
def test_internal_failure_exits_70(files, capsys, monkeypatch, exc):
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "classify", broken)
    assert run(["classify", "--strict", files["counterexample"]]) == 70
    err = capsys.readouterr().err
    assert err.startswith("internal error:") and err.count("\n") == 1


def test_closed_stdout_exits_74(files):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the command writes anything
    try:
        out = subprocess.run(
            [sys.executable, "-m", "convexcodes.cli", "classify", "--json", files["intro-code"]],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert out.returncode == 74
    assert "internal error" not in out.stderr and "Exception ignored" not in out.stderr

