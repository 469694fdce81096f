"""Coset graphs of groups: construction, analysis, recognition, spectra.

The group and spectral layers are the only ones that need numpy, so their
names are imported on first access (PEP 562) and recognising, analysing or
exporting a graph never loads it.
"""

import importlib

from .analysis import StructureReport, analyze, check_subgroup_subgraph, structure_report
from .characterize import (
    ACCEPT,
    REFUSE,
    UNDETERMINED,
    CharacterizationVerdict,
    characterize,
    characterize_bipartite,
    turan_verdict,
    witness_search,
)
from .errors import (
    ClosureOverflowError,
    GGraphError,
    InvalidInputError,
    InvalidMatrixError,
    InvalidPairError,
    InvalidParameterError,
    InvalidPartitionError,
    NotAGeneratingSetError,
    SizeLimitError,
    TooLargeError,
)
from .ggraph import GGraph, PredictedStats, build_ggraph, predicted_stats
from .infinite import (
    INFINITE,
    AffElem,
    BallGraph,
    Mat2Z,
    affine_ball,
    is_locally_finite,
    sl2z_ball,
)
from .iso import CanonicalForm, FamilyTag, are_isomorphic, canonical_form, recognize_family
from .multigraph import Multigraph

__version__ = "0.1.0"

_LAZY = {
    "groups": (
        "Coset",
        "GenSequence",
        "GroupTable",
        "closure_from_permutations",
        "element_order",
        "make_alternating",
        "make_cyclic",
        "make_dihedral",
        "make_direct_product",
        "make_gen_sequence",
        "make_generalized_quaternion",
        "make_klein",
        "make_semidihedral",
        "make_symmetric",
        "make_trivial",
        "right_cosets",
    ),
    "spectral": (
        "AdjMatrix",
        "MatrixDiagnostics",
        "SpectrumReport",
        "adjacency_from_multigraph",
        "adjacency_matrix",
        "matrix_csv",
        "matrix_diagnostics",
        "spectrum",
    ),
}
_OWNER = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    "StructureReport", "analyze", "check_subgroup_subgraph", "structure_report",
    "ACCEPT", "REFUSE", "UNDETERMINED", "CharacterizationVerdict", "characterize",
    "characterize_bipartite", "turan_verdict", "witness_search",
    "ClosureOverflowError", "GGraphError", "InvalidInputError", "InvalidMatrixError",
    "InvalidPairError", "InvalidParameterError", "InvalidPartitionError",
    "NotAGeneratingSetError", "SizeLimitError", "TooLargeError",
    "GGraph", "PredictedStats", "build_ggraph", "predicted_stats",
    "INFINITE", "AffElem", "BallGraph", "Mat2Z", "affine_ball", "is_locally_finite",
    "sl2z_ball",
    "CanonicalForm", "FamilyTag", "are_isomorphic", "canonical_form", "recognize_family",
    "Multigraph",
    *_OWNER,
]


def __getattr__(name):
    # ``ggraphs.groups`` and ``ggraphs.spectral`` themselves, or a name they own
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value  # later lookups are a plain dict hit
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
