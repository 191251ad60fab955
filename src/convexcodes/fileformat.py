"""Plain-text files for codes and complexes.

One word (or facet) per line, ``#`` starts a comment, blank lines are
skipped.  An optional first directive line ``n=K`` pins the ambient label
count.  Three token forms exist:

* separated positive integers: ``2 3 4 5`` or ``2,3,4,5``;
* compact digit strings for labels up to 9: ``2345``;
* fixed-width binary strings, one character per label: ``0111``.

Every field is a run of ASCII decimal digits; anything else, and a line
of separators alone, is a ``ParseError`` naming the line.

The literal ``0`` or ``empty`` denotes the empty word in any file.  Binary
and integer forms cannot be mixed within one file.  A lone multi-character
token of 0s and 1s is read as binary (by ``parse_face`` only when it is n
wide); a lone token with a digit above 1 is read as compact digits when
the ambient stays at 9 or below, and as one whole label when a directive
declares n >= 10.  Files with labels above 9 and no directive should use
separators.
"""

from __future__ import annotations

import re

from .complexes import Code, SimplicialComplex, face_members, MAX_VERTICES
from .errors import LabelOutOfRange, MixedNotation, ParseError

_DIRECTIVE = re.compile(r"^n\s*=\s*(\d+)$")

_BINARY = "binary"
_INTEGER = "integer"


def _strip(line: str) -> str:
    cut = line.find("#")
    if cut >= 0:
        line = line[:cut]
    return line.strip()


def _classify_token(line: str, lineno: int):
    """Return (kind, payload) for one word line; kind is a notation or 'empty'."""
    if line.lower() in ("0", "empty"):
        return "empty", 0
    fields = line.replace(",", " ").split()
    if not fields:
        raise ParseError("no labels (write 0 for the empty word)", lineno)
    for tok in fields:
        # ASCII only: str.isdigit also holds for digits such as "²" that int() rejects
        if not (tok.isascii() and tok.isdigit()):
            raise ParseError(f"unreadable token {tok!r}", lineno)
    if len(fields) > 1:
        return _INTEGER, ("separated", fields)
    tok = fields[0]
    if set(tok) <= {"0", "1"} and len(tok) > 1:
        return _BINARY, tok
    return _INTEGER, ("single", tok)


def _label_mask(labels: list[int], n_cap: int, lineno: int) -> int:
    mask = 0
    for v in labels:
        if v < 1 or v > MAX_VERTICES:
            raise LabelOutOfRange(f"line {lineno}: label {v} outside 1..{MAX_VERTICES}")
        if n_cap and v > n_cap:
            raise LabelOutOfRange(f"line {lineno}: label {v} above declared n={n_cap}")
        mask |= 1 << (v - 1)
    return mask


def _row_mask(kind: str, payload, n: int, lineno: int) -> int:
    """Decode one row scanned by ``_classify_token`` into a face mask.

    ``n`` is the declared ambient count (0 when none), which decides how a
    lone multi-digit integer token is read and caps the labels.
    """
    if kind == "empty":
        return 0
    if kind == _BINARY:
        return sum(1 << pos for pos, ch in enumerate(payload) if ch == "1")
    style, data = payload
    if style == "separated":
        labels = [int(f) for f in data]
    elif n >= 10:
        labels = [int(data)]
    else:
        if "0" in data:
            raise ParseError(
                "0 is not a label; separate multi-digit labels with spaces", lineno
            )
        labels = [int(ch) for ch in data]
    return _label_mask(labels, n, lineno)


def _parse_lines(text: str):
    """Shared scanner: returns (declared_n, [(lineno, kind, payload), ...])."""
    declared = 0
    rows = []
    saw_word = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        m = _DIRECTIVE.match(line)
        if m:
            if saw_word or declared:
                raise ParseError("n=... must be the first content line", lineno)
            declared = int(m.group(1))
            if not 1 <= declared <= MAX_VERTICES:
                raise ParseError(f"declared n={declared} outside 1..{MAX_VERTICES}", lineno)
            continue
        saw_word = True
        kind, payload = _classify_token(line, lineno)
        rows.append((lineno, kind, payload))
    return declared, rows


def _decode(declared: int, rows) -> tuple[int, list[int]]:
    """Turn scanned rows into (ambient_n, masks)."""
    notations = {k for _, k, _ in rows if k != "empty"}
    if notations == {_BINARY, _INTEGER}:
        bad = next(lineno for lineno, k, _ in rows if k == _INTEGER)
        raise MixedNotation(
            "binary and integer word forms mixed in one file", bad
        )
    width = 0
    if notations == {_BINARY}:
        for lineno, kind, tok in rows:
            if kind == "empty":
                continue
            if width == 0:
                width = len(tok)
                if declared and width != declared:
                    raise ParseError(
                        f"binary width {width} does not match declared n={declared}",
                        lineno,
                    )
            elif len(tok) != width:
                raise ParseError(
                    f"binary width {len(tok)} does not match earlier width {width}",
                    lineno,
                )
    masks = [_row_mask(kind, payload, declared, lineno) for lineno, kind, payload in rows]
    # the highest label of an integer-notation file is its highest set bit
    n = declared or width or max(m.bit_length() for m in masks)
    if n < 1 or n > MAX_VERTICES:
        raise ParseError(f"ambient label count {n} outside 1..{MAX_VERTICES}")
    return n, masks


def parse_code(text: str) -> Code:
    """Read a code from file text; at least one word line is required."""
    declared, rows = _parse_lines(text)
    if not rows:
        raise ParseError("no codewords in input")
    n, masks = _decode(declared, rows)
    return Code(n, frozenset(masks))


def parse_complex(text: str) -> SimplicialComplex:
    """Read a complex from file text, one facet per line, same token rules."""
    declared, rows = _parse_lines(text)
    if not rows:
        raise ParseError("no facets in input")
    n, masks = _decode(declared, rows)
    return SimplicialComplex.from_facets(n, masks)


def _emit_face(mask: int, n: int) -> str:
    if mask == 0:
        return "0"
    mem = face_members(mask)
    if n <= 9:
        return "".join(str(v) for v in mem)
    return " ".join(str(v) for v in mem)


def emit_code(code: Code) -> str:
    """Render a code; starts with an n=K directive so round-trips are exact."""
    lines = [f"n={code.ambient_n}"]
    lines += [_emit_face(w, code.ambient_n) for w in code.sorted_words()]
    return "\n".join(lines) + "\n"


def emit_complex(cx: SimplicialComplex) -> str:
    """Render a complex by its facets, directive first."""
    lines = [f"n={cx.ambient_n}"]
    lines += [_emit_face(f, cx.ambient_n) for f in cx.facets]
    return "\n".join(lines) + "\n"


def parse_face(token: str, n: int = 0) -> int:
    """Read one face given on a command line; braces, as in ``{1,12}``, enclose whole labels."""
    token = token.strip()
    braced = len(token) > 1 and token[0] == "{" and token[-1] == "}"
    if braced:
        token = token[1:-1]
    kind, payload = _classify_token(token, 1)
    if braced and kind != "empty":
        kind, payload = _INTEGER, ("separated", token.replace(",", " ").split())
    elif kind == _BINARY and n and len(payload) != n:
        if n <= 9:  # no binary row; on 10 or more labels, one whole label
            raise ParseError(f"binary width {len(payload)} does not match n={n}", 1)
        kind, payload = _INTEGER, ("single", payload)
    return _row_mask(kind, payload, n, 1)
