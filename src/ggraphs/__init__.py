"""Coset graphs of groups: construction, analysis, recognition, spectra.

Every submodule, and every public name below, is imported on first access
(PEP 562), so ``import ggraphs`` imports no submodule and each CLI command
loads only the modules it runs.  numpy loads only with ``groups`` and
``spectral``: recognising, analysing or exporting a graph never loads it.
"""

import sys
import types

__version__ = "0.1.0"

_LAZY = {
    "analysis": ("StructureReport", "analyze", "check_subgroup_subgraph"),
    "characterize": (
        "ACCEPT", "REFUSE", "UNDETERMINED", "CharacterizationVerdict", "characterize",
        "characterize_bipartite", "turan_verdict",
    ),
    "cli": (),
    "errors": (
        "ClosureOverflowError", "GGraphError", "InvalidInputError", "InvalidMatrixError",
        "InvalidPairError", "InvalidParameterError", "InvalidPartitionError",
        "NotAGeneratingSetError", "SizeLimitError", "TooLargeError",
    ),
    "ggraph": ("GGraph", "PredictedStats", "build_ggraph", "predicted_stats"),
    "groups": (
        "Coset", "GenSequence", "GroupTable", "closure_from_permutations", "element_order",
        "make_alternating", "make_cyclic", "make_dihedral", "make_direct_product",
        "make_gen_sequence", "make_generalized_quaternion", "make_klein",
        "make_semidihedral", "make_symmetric", "make_trivial", "right_cosets",
    ),
    "infinite": (
        "INFINITE", "BallGraph", "affine_ball", "is_locally_finite", "sl2z_ball",
    ),
    "io": (),
    "iso": ("CanonicalForm", "FamilyTag", "are_isomorphic", "canonical_form", "recognize_family"),
    "multigraph": ("Multigraph",),
    "spectral": (
        "AdjMatrix", "MatrixDiagnostics", "SpectrumReport", "adjacency_from_multigraph",
        "adjacency_matrix", "matrix_csv", "matrix_diagnostics", "spectrum",
    ),
    "witness": ("witness_search",),
}
_OWNER = {name: module for module, names in _LAZY.items() for name in names}
__all__ = list(_OWNER)


def __getattr__(name):
    # a public name first, so ``characterize`` is the function and not its module
    module = _OWNER.get(name, name)
    if module not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the interpreter's own import statement, which ``-X importtime`` lists
    __import__(f"{__name__}.{module}")
    value = sys.modules[f"{__name__}.{module}"]
    if name in _OWNER:
        value = globals()[name] = getattr(value, name)  # later lookups are a plain dict hit
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_LAZY))


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # Loading a submodule binds it on the package; a public name of the
        # same name (``characterize``) keeps its function instead.
        if not (name in _OWNER and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
