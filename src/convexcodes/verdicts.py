"""Three-valued verdicts with auditable reasons.

Every decision procedure in this package answers Yes, No, or Unknown, and a
Yes or No always travels with enough material to re-check it: a reason tag
naming the deciding test plus an optional certificate payload (a collapse
sequence, a Betti vector, a witness face).  Unknown is reserved for honest
resource exhaustion, never for "probably".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Iterable, Optional


class Verdict(enum.Enum):
    YES = "Yes"
    NO = "No"
    UNKNOWN = "Unknown"

    def __str__(self) -> str:
        return self.value


# Reason tags carried by TriStatus values.
R_TREE_TEST = "tree-test"
R_CONE_APEX = "cone-apex"
R_COLLAPSE_CERT = "collapse-certificate"
R_NONZERO_BETTI = "nonzero-betti"
R_NOT_COLLAPSIBLE = "not-collapsible"
R_BUDGET = "budget"
R_INCONCLUSIVE = "inconclusive"
R_ALL_LINKS = "all-links-verified"
R_ALL_REGIONS = "all-regions-verified"
R_VACUOUS = "nothing-to-check"


@dataclass(frozen=True, slots=True)
class TriStatus:
    """A verdict plus its audit trail.

    ``witness`` is the obstructing face on a No from a quantified check.
    ``certificate`` is the machine-checkable evidence for the verdict:
    a tuple of collapse steps, a Betti vector, a cone apex face, a dict
    (a graph summary or a search's ``nodes_explored``), or None when the
    reason tag alone tells the whole story.
    """

    value: Verdict
    reason: str
    witness: Optional[int] = None
    certificate: Any = None

    @property
    def is_yes(self) -> bool:
        return self.value is Verdict.YES

    @property
    def is_no(self) -> bool:
        return self.value is Verdict.NO

    @property
    def is_unknown(self) -> bool:
        return self.value is Verdict.UNKNOWN


def for_all(checks: Iterable[tuple[int, TriStatus]], yes_reason: str) -> TriStatus:
    """Quantify a verdict over faces: the first No, else the first Unknown, else Yes.

    ``checks`` yields (face, status) pairs and is consumed lazily, so the
    checks after the first No never run.  No keeps the failing status's
    reason and certificate and names the face as witness; Unknown keeps
    the reason and witness of the first undecided face.  Yes carries
    ``yes_reason``; a caller with nothing to check decides that itself.
    """
    unknown = None
    for face, st in checks:
        if st.is_no:
            return TriStatus(Verdict.NO, st.reason, witness=face, certificate=st.certificate)
        if st.is_unknown and unknown is None:
            unknown = TriStatus(Verdict.UNKNOWN, st.reason, witness=face)
    if unknown is not None:
        return unknown
    return TriStatus(Verdict.YES, yes_reason)
