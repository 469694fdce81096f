"""Adjacency matrices, spectra and graph energy.

The adjacency matrix of a graph is integer-valued with a zero diagonal;
entries are edge multiplicities.  An ``AdjMatrix`` holds only the matrix:
the partition classes of a coset graph are read from the graph itself, by
``matrix_diagnostics``, which refuses a matrix with an entry inside a class
block and decides whether it can come from the coset construction by the
rule ``characterize`` uses, ``_verdict_from_parameters``, so the two cannot
disagree.

Eigenvalues come from LAPACK's symmetric solver (``numpy.linalg.eigvalsh``)
on the dense matrix, so exact integers enter floating point only at the
eigen-decomposition.  Matrices are bounded at DIMENSION_LIMIT and their
summed multiplicity at MULTIPLICITY_LIMIT, both checked before any matrix is
allocated; ``AdjMatrix`` checks the sum again, so a matrix built by hand
meets the same bound.

Energy is the sum of absolute eigenvalues.  A graph on n vertices is
classified HYPO when energy < n and HYPER when energy > 2n - 2, both strict;
graphs sitting exactly on a boundary are NORMAL, and the report additionally
carries the booleans energy >= n and energy = 2n - 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .characterize import _verdict_from_parameters
from .errors import InvalidMatrixError, InvalidPairError, SizeLimitError
from .ggraph import GGraph
from .multigraph import MULTIPLICITY_LIMIT, Multigraph

DIMENSION_LIMIT = 2048
GROUP_TOL = 1e-6
_CLASS_EPS = 1e-8

HYPO = "HYPO"
NORMAL = "NORMAL"
HYPER = "HYPER"


@dataclass(frozen=True, eq=False)
class AdjMatrix:
    """Symmetric integer adjacency matrix with a zero diagonal.

    Entries are multiplicities, so none is negative, and their sum over the
    upper triangle is bounded at MULTIPLICITY_LIMIT like that of every graph
    the package builds.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidMatrixError("adjacency matrix must be square")
        if not np.array_equal(m, m.T):
            raise InvalidMatrixError("adjacency matrix must be symmetric")
        if np.any(np.diag(m) != 0):
            raise InvalidMatrixError("diagonal must be zero")
        if m.size and m.min() < 0:
            raise InvalidMatrixError("multiplicities must not be negative")
        # past the bound, sum Python ints so that the sum cannot wrap
        wide = m.size and m.max() > MULTIPLICITY_LIMIT
        units = int((m.astype(object) if wide else m).sum()) // 2  # symmetric, zero diagonal
        if units > MULTIPLICITY_LIMIT:
            raise SizeLimitError(f"edge multiplicity {units} exceeds {MULTIPLICITY_LIMIT}")

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: tuple[tuple[float, int], ...]  # (value, multiplicity), descending
    energy: float
    energy_class: str
    distinct_count: int
    dimension: int
    energy_at_least_order: bool
    energy_at_upper_bound: bool


@dataclass(frozen=True)
class MatrixDiagnostics:
    row_sums: tuple[int, ...]
    block_row_sums: tuple[Optional[int], ...]
    blocks_uniform: bool
    row_sums_match_degrees: bool
    derived_orders: tuple[Optional[int], ...]
    derived_orders_match: bool
    edge_total: int
    edge_total_matches: bool
    not_a_ggraph: bool
    not_a_ggraph_reason: Optional[str]

    @property
    def ok(self) -> bool:
        return (
            self.blocks_uniform
            and self.row_sums_match_degrees
            and self.derived_orders_match
            and self.edge_total_matches
            and not self.not_a_ggraph
        )


def _adjacency(n: int, edges: Sequence[tuple[int, int, int]]) -> np.ndarray:
    """The n x n multiplicity matrix of (u, v, multiplicity) triples.

    The dimension is checked against DIMENSION_LIMIT and the summed
    multiplicity against MULTIPLICITY_LIMIT before the matrix is allocated.
    """
    if n > DIMENSION_LIMIT:
        raise SizeLimitError(f"dimension {n} exceeds {DIMENSION_LIMIT}")
    units = sum(mult for _, _, mult in edges)
    if units > MULTIPLICITY_LIMIT:
        raise SizeLimitError(f"edge multiplicity {units} exceeds {MULTIPLICITY_LIMIT}")
    m = np.zeros((n, n), dtype=np.int64)
    u, v, mult = np.array(edges, dtype=np.int64).reshape(-1, 3).T
    m[u, v] = mult
    m[v, u] = mult
    return m


def adjacency_matrix(gg: GGraph) -> AdjMatrix:
    """Adjacency matrix in the graph's canonical vertex order."""
    return AdjMatrix(_adjacency(gg.vertex_count, gg.edges))


def adjacency_from_multigraph(mg: Multigraph) -> AdjMatrix:
    """AdjMatrix for a plain multigraph.

    A partition stored on ``mg`` is not read: the spectrum does not depend
    on one, and only ``matrix_diagnostics`` reads classes, from a coset graph.
    """
    return AdjMatrix(_adjacency(mg.n, [(u, v, mult) for (u, v), mult in mg.edges.items()]))


def spectrum(m: AdjMatrix) -> SpectrumReport:
    """Sorted eigenvalues with multiplicities, energy, and energy class.

    Eigenvalues closer than GROUP_TOL are merged into one entry whose value
    is the group mean.  Internal consistency checks (zero trace, eigenvalue
    handshake against the squared entries) guard the decomposition.
    """
    n = m.dimension
    if n > DIMENSION_LIMIT:
        raise SizeLimitError(f"dimension {n} exceeds {DIMENSION_LIMIT}")
    a = m.matrix.astype(np.float64)
    values = np.linalg.eigvalsh(a)[::-1]

    trace = float(np.sum(values))
    if abs(trace) > 1e-8 * max(1, n):
        raise ArithmeticError(f"eigenvalue sum {trace} violates the zero trace")
    sq_sum = float(np.sum(np.square(values)))
    entry_sq = float(np.sum(np.square(a)))
    if entry_sq > 0 and abs(sq_sum - entry_sq) > 1e-6 * entry_sq:
        raise ArithmeticError("eigenvalue squares do not match matrix entries")

    grouped: list[tuple[float, int]] = []
    bucket: list[float] = []
    for v in values:
        if bucket and bucket[-1] - v > GROUP_TOL:
            grouped.append((float(np.mean(bucket)), len(bucket)))
            bucket = []
        bucket.append(float(v))
    if bucket:
        grouped.append((float(np.mean(bucket)), len(bucket)))

    energy = float(np.sum(np.abs(values)))
    upper = 2 * n - 2
    if energy < n - _CLASS_EPS:
        energy_class = HYPO
    elif energy > upper + _CLASS_EPS:
        energy_class = HYPER
    else:
        energy_class = NORMAL
    return SpectrumReport(
        eigenvalues=tuple(grouped),
        energy=energy,
        energy_class=energy_class,
        distinct_count=len(grouped),
        dimension=n,
        energy_at_least_order=energy >= n - _CLASS_EPS,
        energy_at_upper_bound=abs(energy - upper) <= 1e-6,
    )


def matrix_csv(m: AdjMatrix) -> str:
    """The integer matrix as CSV rows."""
    return "\n".join(",".join(str(int(x)) for x in row) for row in m.matrix) + "\n"


def matrix_diagnostics(m: AdjMatrix, gg: GGraph) -> MatrixDiagnostics:
    """Cross-checks between a matrix and the graph it was built from.

    The blocks are the graph's partition classes, ``gg.class_offsets``.  A
    matrix of another dimension than the graph raises InvalidPairError, and
    one with a nonzero entry inside a class block InvalidMatrixError.  Row
    sums must equal the multiplicity-weighted degrees, agree within each
    block, and divide by (k-1) back to the generator orders; the total entry
    sum halves to the edge count.  ``not_a_ggraph`` is the characterization
    rule's answer on the matrix alone: a block whose row sums differ, or,
    with k >= 2 uniform blocks, a refusal by ``_verdict_from_parameters`` of
    the block sizes, block row sums and edge total, whose reason is kept.
    """
    if m.dimension != gg.vertex_count:
        raise InvalidPairError("matrix dimension does not match the graph")
    k = gg.k
    row_sums = tuple(int(x) for x in m.matrix.sum(axis=1))
    degrees = gg.weighted_degrees()
    row_sums_match = list(row_sums) == degrees

    bounds = gg.class_offsets
    block_row_sums: list[Optional[int]] = []
    blocks_uniform = True
    for lo, hi in zip(bounds, bounds[1:]):
        if np.any(m.matrix[lo:hi, lo:hi] != 0):
            raise InvalidMatrixError(f"diagonal block [{lo}:{hi}] must be entirely zero")
        sums = set(row_sums[lo:hi])
        if len(sums) == 1:
            block_row_sums.append(sums.pop())
        else:
            block_row_sums.append(None)
            blocks_uniform = False

    derived: list[Optional[int]] = []
    derived_match = True
    for c, block_sum in enumerate(block_row_sums):
        if k < 2:
            # a single class has no cross-class edges to derive orders from
            derived.append(None)
            continue
        if block_sum is None or block_sum % (k - 1) != 0:
            derived.append(None)
            derived_match = False
            continue
        order = block_sum // (k - 1)
        derived.append(order)
        if order != gg.gen_orders[c]:
            derived_match = False

    edge_total = int(m.matrix.sum()) // 2
    edge_total_matches = edge_total == sum(mult for _, _, mult in gg.edges)

    reason = None
    if not blocks_uniform:
        reason = f"degrees not uniform within class {block_row_sums.index(None)}"
    elif k >= 2:
        sizes = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
        reason = _verdict_from_parameters(k, sizes, block_row_sums, edge_total).refusal_reason

    return MatrixDiagnostics(
        row_sums=row_sums,
        block_row_sums=tuple(block_row_sums),
        blocks_uniform=blocks_uniform,
        row_sums_match_degrees=row_sums_match,
        derived_orders=tuple(derived),
        derived_orders_match=derived_match,
        edge_total=edge_total,
        edge_total_matches=edge_total_matches,
        not_a_ggraph=reason is not None,
        not_a_ggraph_reason=reason,
    )
