"""Local obstructions to convexity for combinatorial neural codes.

Decide whether a code is locally good (realizable by a good cover) or
locally great (every missing face has a collapsible link), with
machine-checkable certificates, plus an exact combinatorial audit of the
canonical open realization.  See the README for the file format and CLI.
"""

from .analysis import (
    AnalysisReport,
    classify,
    cone_minus_apex,
    contractibility_status,
    facet_intersections,
    is_locally_good,
    is_locally_great,
    mandatory_codewords,
)
from .collapse import (
    Budget,
    CollapseOutcome,
    CollapseStep,
    certifies_collapse,
    elementary_collapse,
    free_pairs,
    is_collapsible,
    kernel_name,
    replay_certificate,
)
from .complexes import (
    Code,
    SimplicialComplex,
    closure,
    cone,
    face_label,
    face_members,
    face_of,
    link,
    order_complex,
)
from .errors import ConvexCodesError
from .homology import BettiVector, boundary_matrix, is_acyclic, reduced_betti
from .realization import (
    good_cover_check,
    realized_code_from_U,
    realized_code_from_closures,
    v_region_contractibility,
)
from .verdicts import TriStatus, Verdict

__version__ = "0.1.0"

__all__ = [
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
    "__version__",
]
