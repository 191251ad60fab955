"""The text format for codes and complexes: parsing, errors, round trips."""

import random
from functools import partial

import pytest

from convexcodes.complexes import Code, SimplicialComplex, face_of
from convexcodes.errors import ConvexCodesError, LabelOutOfRange, MixedNotation, ParseError
from convexcodes.fileformat import (
    emit_code,
    emit_complex,
    parse_code,
    parse_complex,
    parse_face,
)
from convexcodes.instances import counterexample_code, random_code, random_complex


def F(digits):
    return face_of(int(c) for c in digits)


def test_parse_binary_rows():
    code = parse_code("1110\n0111\n1100\n")
    assert code.ambient_n == 4
    assert code.words == {F("123"), F("234"), F("12")}


def test_parse_compact_digits():
    code = parse_code("n = 5\n123\n45\n1\n")
    assert code.ambient_n == 5
    assert code.words == {F("123"), F("45"), F("1")}


def test_parse_separated_labels():
    code = parse_code("1,2,3\n4 5\n")
    assert code.ambient_n == 5  # inferred from the largest label
    assert code.words == {F("123"), F("45")}


def test_parse_empty_word_markers():
    code = parse_code("n=3\n12\n0\n")
    assert code.has_empty_word
    code = parse_code("n=3\n12\nempty\n")
    assert code.has_empty_word


def test_parse_comments_and_blanks():
    code = parse_code("# a code\n\nn=4\n# another comment\n12\n\n34\n")
    assert code.words == {F("12"), F("34")}


def test_parse_wide_labels_need_separators():
    code = parse_code("n=12\n1 2 11\nempty\n")
    assert code.ambient_n == 12
    assert code.words == {0, face_of([1, 2, 11])}


def test_parse_errors():
    with pytest.raises(ParseError, match="no codewords"):
        parse_code("")
    with pytest.raises(ParseError, match="no codewords"):
        parse_code("# only a comment\n")
    with pytest.raises(MixedNotation, match="line 2"):
        parse_code("1110\n12\n")
    with pytest.raises(ParseError, match="line 2: binary width 4"):
        parse_code("n=3\n1110\n")
    with pytest.raises(ParseError, match="earlier width 3"):
        parse_code("110\n1100\n")
    with pytest.raises(ParseError, match="0 is not a label"):
        parse_code("102\n")
    with pytest.raises(ParseError, match="unreadable token"):
        parse_code("n=2\nx\n")
    with pytest.raises(ParseError, match="first content line"):
        parse_code("12\nn=4\n")
    with pytest.raises(ParseError, match="outside 1..64"):
        parse_code("n=65\n1\n")
    with pytest.raises(ParseError, match="outside 1..64"):
        parse_code("n=0\n1\n")
    with pytest.raises(LabelOutOfRange, match="line 2"):
        parse_code("n=4\n5\n")


@pytest.mark.parametrize("text", ["1 x\n", "1 2.5\n", "1\u00b2\n", "12\n3 \u0663\n"])
def test_malformed_tokens_are_parse_errors(text):
    # "\u00b2" (superscript two) and "\u0663" (Arabic-Indic three) pass
    # str.isdigit but are not ASCII decimal fields
    lineno = text.count("\n")
    with pytest.raises(ParseError, match=f"line {lineno}: unreadable token"):
        parse_code(text)
    with pytest.raises(ParseError, match="unreadable token"):
        parse_face(text.splitlines()[-1], 4)


def test_parse_face_reads_the_braced_labels_it_prints():
    assert parse_face("{1,2}", 12) == F("12")
    assert parse_face("{12}", 12) == 1 << 11
    assert parse_face("{10}", 12) == 1 << 9  # whole labels, never a binary row
    assert parse_face(" {3, 12} ", 12) == F("3") | 1 << 11
    assert parse_face("{1,2}", 3) == parse_face("12", 3) == F("12")
    for bad in ("{}", "{{1}}", "{1", "{x}"):
        with pytest.raises(ParseError):
            parse_face(bad, 12)


@pytest.mark.parametrize("text", [",", " , ", ",\t,", "1,,2\n,"])
def test_separator_only_lines_are_parse_errors(text):
    lineno = text.count("\n") + 1
    with pytest.raises(ParseError, match=f"line {lineno}: no labels"):
        parse_code(text)
    with pytest.raises(ParseError, match=f"line {lineno}: no labels"):
        parse_complex(text)
    with pytest.raises(ParseError, match="no labels"):
        parse_face(text.splitlines()[-1], 4)


def test_short_texts_parse_or_raise_package_errors():
    rng = random.Random(20)
    alphabet = "0123456789 ,\t#ne=y\n"
    parsers = [parse_code, parse_complex] + [partial(parse_face, n=n) for n in (0, 4, 12)]
    for _ in range(20_000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        for parse in parsers:
            try:
                parse(text)
            except ConvexCodesError:
                pass


def test_error_line_numbers_account_for_comments():
    with pytest.raises(ParseError, match="line 4"):
        parse_code("# header\nn=2\n\nbadtoken99\n")


def test_emit_code_compact():
    text = emit_code(Code(4, frozenset({0, F("12"), F("34"), F("123")})))
    assert text == "n=4\n0\n12\n34\n123\n"


def test_emit_code_separated_for_wide_ambient():
    text = emit_code(Code(11, frozenset({1, face_of([1, 11])})))
    assert text == "n=11\n1\n1 11\n"


def test_code_round_trip():
    for seed in range(25):
        code = random_code(5, seed)
        assert parse_code(emit_code(code)) == code
    wide = Code(12, frozenset({0, face_of([1, 2, 11]), face_of([12])}))
    assert parse_code(emit_code(wide)) == wide
    cex = counterexample_code()
    assert parse_code(emit_code(cex)) == cex


def test_parse_complex():
    cx = parse_complex("n=4\n123\n34\n12\n")
    assert cx == SimplicialComplex.from_facets(4, [F("123"), F("34")])


def test_complex_round_trip():
    for seed in range(25):
        cx = random_complex(6, seed)
        if cx.is_void:
            continue
        assert parse_complex(emit_complex(cx)) == cx


def test_parse_face_tokens():
    assert parse_face("13", 4) == F("13")
    assert parse_face("1,3", 4) == F("13")
    assert parse_face("0", 4) == 0
    assert parse_face("empty", 4) == 0
    assert parse_face(" 1 3 ", 4) == F("13")
    assert parse_face("0101", 4) == F("24")
    assert parse_face("12", 12) == face_of([12])
    assert parse_face("10 12", 12) == face_of([10, 12])
    with pytest.raises(LabelOutOfRange):
        parse_face("5", 4)
    with pytest.raises(ParseError):
        parse_face("zz", 4)
    with pytest.raises(ParseError, match="no labels"):
        parse_face("", 4)
