"""A pinned digest of classify output: any change to any report field shows.

Performance work must leave every verdict, witness, certificate and node
count as it was.  This test hashes a canonical form of every
``AnalysisReport`` field over a fixed corpus and compares it with a digest
recorded before the homology memo went in.  A deliberate change of output
must update the digest and say why.
"""

import dataclasses
import enum
import hashlib

from convexcodes.analysis import classify
from convexcodes.collapse import Budget
from convexcodes.instances import c_n, random_code

# Re-pinned when locally good took locally great's Yes reason rule: the
# digest equals the previous output with exactly that reason remapped
# (``nothing-to-check`` to ``all-links-verified`` on 96 reports).
PINNED = "b346ac951fee80ce0336d5d6e1491540bbbe998519c3203237f8d67fc64db702"


def canonical(value):
    """A repr-stable form: sets become sorted tuples, dataclasses field tuples."""
    if dataclasses.is_dataclass(value):
        fields = dataclasses.fields(value)
        return (type(value).__name__,
                tuple((f.name, canonical(getattr(value, f.name))) for f in fields))
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(canonical(v) for v in value))
    if isinstance(value, dict):
        return tuple(sorted((k, canonical(v)) for k, v in value.items()))
    if isinstance(value, (tuple, list)):
        return tuple(canonical(v) for v in value)
    return value


def corpus():
    for n in (5, 6):
        for seed in range(100):
            yield random_code(n, seed), Budget()
    for n in range(3, 10):
        yield c_n(n), Budget()
    for i in range(16):
        yield random_code(7, i), Budget(nodes=5000)


def digest() -> str:
    h = hashlib.sha256()
    for code, budget in corpus():
        h.update(repr(canonical(classify(code, budget))).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_classify_output_matches_pinned_digest():
    assert digest() == PINNED
