import math

import numpy as np
import pytest

import fixture_catalog as cat
from ggraphs import (
    InvalidMatrixError,
    InvalidPairError,
    SizeLimitError,
    adjacency_from_multigraph,
    adjacency_matrix,
    make_cyclic,
    make_dihedral,
    build_ggraph,
    matrix_diagnostics,
    spectrum,
)
from ggraphs.multigraph import (
    MULTIPLICITY_LIMIT,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    octahedron_graph,
    path_graph,
)
from ggraphs.spectral import HYPER, HYPO, NORMAL, AdjMatrix


def expand(report):
    return sorted(
        (v for v, m in report.eigenvalues for _ in range(m)), reverse=True
    )


def assert_spectrum(report, expected, tol=1e-3):
    """expected: list of (value, multiplicity), descending."""
    assert [m for _, m in report.eigenvalues] == [m for _, m in expected]
    for (got, _), (want, _) in zip(report.eigenvalues, expected):
        assert got == pytest.approx(want, abs=tol)


def test_adjacency_matrix_d10_rs():
    gg = cat.ggraph_of("dihedral10_rs")
    m = adjacency_matrix(gg)
    assert m.dimension == 7
    expected = np.zeros((7, 7), dtype=int)
    expected[:2, 2:] = 1
    expected[2:, :2] = 1
    assert np.array_equal(m.matrix, expected)


def test_adjacency_matrix_single_vertex():
    z5 = make_cyclic(5)
    gg = build_ggraph(z5, [z5.index_of_label("1")])
    m = adjacency_matrix(gg)
    assert m.dimension == 1
    assert m.matrix[0, 0] == 0


def test_adjacency_matrix_quaternion_blocks():
    m = adjacency_matrix(cat.ggraph_of("quaternion_ab"))
    assert np.array_equal(m.matrix[:2, 2:], np.full((2, 2), 2))
    assert np.array_equal(m.matrix[:2, :2], np.zeros((2, 2)))


def test_non_symmetric_matrix_rejected():
    bad = np.zeros((3, 3), dtype=np.int64)
    bad[0, 1] = 1
    with pytest.raises(InvalidMatrixError):
        AdjMatrix(matrix=bad)


def test_loop_in_a_singleton_block_rejected():
    # the path 0-1-2 with a loop at 1, whose one cell is on the diagonal
    loop = np.zeros((3, 3), dtype=np.int64)
    loop[0, 1] = loop[1, 0] = loop[1, 2] = loop[2, 1] = loop[1, 1] = 1
    with pytest.raises(InvalidMatrixError, match="diagonal must be zero"):
        AdjMatrix(matrix=loop)


@pytest.mark.parametrize(
    "entry, total",
    [(5_000_000_000, 10_000_000_000), (2**62, 2**63), (MULTIPLICITY_LIMIT // 2 + 1, None)],
    ids=["5e9", "2^62", "just_past"],
)
def test_hand_built_matrix_refused_past_the_multiplicity_bound(entry, total):
    # the path 0-1-2 with both edges `entry`-fold; before the bound was
    # checked here, spectrum failed on the trace identity instead
    heavy = np.zeros((3, 3), dtype=np.int64)
    heavy[0, 1] = heavy[1, 0] = heavy[1, 2] = heavy[2, 1] = entry
    total = 2 * entry if total is None else total
    with pytest.raises(SizeLimitError, match=f"edge multiplicity {total} exceeds"):
        spectrum(AdjMatrix(matrix=heavy))


@pytest.mark.parametrize("entry", [1, 5_000_000_000], ids=["1", "5e9"])
def test_hand_built_matrix_with_a_negative_entry_refused(entry):
    # the path 0-1-2 with edges `entry` and -`entry`: a signed sum of zero
    # must not let the entries past the multiplicity bound
    signed = np.zeros((3, 3), dtype=np.int64)
    signed[0, 1] = signed[1, 0] = entry
    signed[1, 2] = signed[2, 1] = -entry
    with pytest.raises(InvalidMatrixError, match="must not be negative"):
        spectrum(AdjMatrix(matrix=signed))


def test_hand_built_matrix_at_the_multiplicity_bound_is_kept():
    edge = np.array([[0, MULTIPLICITY_LIMIT], [MULTIPLICITY_LIMIT, 0]], dtype=np.int64)
    report = spectrum(AdjMatrix(matrix=edge))
    assert_spectrum(report, [(MULTIPLICITY_LIMIT, 1), (-MULTIPLICITY_LIMIT, 1)])


def test_octahedron_spectrum():
    report = spectrum(adjacency_from_multigraph(octahedron_graph()))
    assert_spectrum(report, [(4, 1), (0, 3), (-2, 2)])
    assert report.distinct_count == 3
    assert report.energy_at_least_order


def test_k25_spectrum_hypo():
    report = spectrum(adjacency_from_multigraph(complete_bipartite(2, 5)))
    assert_spectrum(report, [(3.16228, 1), (0, 5), (-3.16228, 1)])
    assert report.energy == pytest.approx(2 * math.sqrt(10), abs=1e-9)
    assert report.energy < 7
    assert report.energy_class == HYPO


def test_double_edged_k23_spectrum():
    report = spectrum(adjacency_matrix(cat.ggraph_of("genq3_ab")))
    assert_spectrum(report, [(4.89898, 1), (0, 3), (-4.89898, 1)])


def test_double_edged_k22_spectrum():
    report = spectrum(adjacency_matrix(cat.ggraph_of("quaternion_ab")))
    assert_spectrum(report, [(4, 1), (0, 2), (-4, 1)])


def test_k33_spectrum_boundary_energy():
    gg = cat.ggraph_of("z3z3_s1")
    report = spectrum(adjacency_matrix(gg))
    assert_spectrum(report, [(3, 1), (0, 4), (-3, 1)])
    assert report.energy == pytest.approx(6, abs=1e-9)  # energy equals order
    assert report.energy_class == NORMAL
    assert report.energy_at_least_order


@pytest.mark.parametrize("k", [2, 3, 4])
def test_balanced_complete_bipartite_family(k):
    report = spectrum(adjacency_from_multigraph(complete_bipartite(k, k)))
    assert_spectrum(report, [(k, 1), (0, 2 * k - 2), (-k, 1)])
    assert report.energy == pytest.approx(2 * k, abs=1e-9)


def test_complete_graph_spectra_and_energy():
    for n in range(3, 9):
        report = spectrum(adjacency_from_multigraph(complete_graph(n)))
        assert_spectrum(report, [(n - 1, 1), (-1, n - 1)])
        assert report.energy == pytest.approx(2 * n - 2, abs=1e-6)
        assert report.energy_class == NORMAL  # boundary value, not strict
        assert report.energy_at_upper_bound


def test_s3_transpositions_spectrum():
    report = spectrum(adjacency_matrix(cat.ggraph_of("sym3_all_transpositions")))
    assert_spectrum(report, [(4, 1), (1, 4), (-2, 4)])
    assert report.energy == pytest.approx(16, abs=1e-9)
    assert report.energy > report.dimension  # 16 > 9
    assert report.energy_at_upper_bound  # 16 = 2*9 - 2 exactly


def test_s4_two_generator_spectrum():
    report = spectrum(adjacency_matrix(cat.ggraph_of("sym4_12_tailcycle")))
    expected = [
        (math.sqrt(6), 1), (2, 3), (math.sqrt(2), 3), (0, 6),
        (-math.sqrt(2), 3), (-2, 3), (-math.sqrt(6), 1),
    ]
    assert_spectrum(report, expected)
    assert report.energy > report.dimension


def test_a4_spectrum_is_cube_spectrum():
    report = spectrum(adjacency_matrix(cat.ggraph_of("alt4_12i")))
    assert_spectrum(report, [(3, 1), (1, 3), (-1, 3), (-3, 1)])


def test_c4_spectrum():
    report = spectrum(adjacency_from_multigraph(cycle_graph(4)))
    assert_spectrum(report, [(2, 1), (0, 2), (-2, 1)])
    assert report.energy == pytest.approx(4, abs=1e-9)
    assert report.energy_class == NORMAL  # energy equals the vertex count


def test_hyperenergetic_classification_strict():
    # K_{2,5} plus nothing reaches HYPER among these; check the strict gate
    report = spectrum(adjacency_from_multigraph(complete_graph(6)))
    assert report.energy == pytest.approx(10, abs=1e-9)
    assert report.energy_class == NORMAL
    # a genuinely hyperenergetic case: line-graph-like density is not in the
    # catalog, so force one synthetically to cover the branch
    g = complete_bipartite(2, 2, mult=2)
    rep = spectrum(adjacency_from_multigraph(g))
    assert rep.energy == pytest.approx(8, abs=1e-9)
    assert rep.energy_class == HYPER  # 8 > 2*4 - 2


def jacobi_eigenvalues(matrix):
    """Descending eigenvalues by cyclic Jacobi rotations in pure Python.

    A reference that shares no code with LAPACK or BLAS (element-wise
    numpy only): sweeps run until the off-diagonal Frobenius norm is below
    1e-10 of the matrix's.
    """
    a = matrix.astype(np.float64)
    threshold = 1e-20 * np.sum(np.square(a))
    for _ in range(100):
        if np.sum(np.square(a - np.diag(np.diag(a)))) <= threshold:
            return np.sort(np.diag(a))[::-1]
        for p in range(len(a) - 1):
            for q in range(p + 1, len(a)):
                if a[p, q] == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.hypot(t, 1.0)
                s = t * c
                ap, aq = a[:, p].copy(), a[:, q].copy()
                a[:, p], a[:, q] = c * ap - s * aq, s * ap + c * aq
                ap, aq = a[p, :].copy(), a[q, :].copy()
                a[p, :], a[q, :] = c * ap - s * aq, s * ap + c * aq
                a[p, q] = a[q, p] = 0.0
    raise ArithmeticError("Jacobi sweeps did not converge")


ORACLE_GRAPHS = [
    "sym3_all_transpositions",
    "sym4_12_tailcycle",
    "alt4_12i",
    "dihedral10_rs",
    "dihedral16_st",
    "quaternion_ab",
    "genq3_ab",
    "sd16_ab",
    "z3z3_s1",
    "klein_ab_ab",
    "trivial5",
]


@pytest.mark.parametrize("name", ORACLE_GRAPHS)
def test_jacobi_matches_numpy_oracle(name):
    m = adjacency_matrix(cat.ggraph_of(name))
    assert np.allclose(expand(spectrum(m)), jacobi_eigenvalues(m.matrix), atol=1e-8)


def test_jacobi_on_72_vertex_graph():
    # degree 10 everywhere; the energy is genuinely hyperenergetic here
    m = adjacency_matrix(cat.ggraph_of("sym4_all_transpositions"))
    report = spectrum(m)
    assert np.allclose(expand(report), jacobi_eigenvalues(m.matrix), atol=1e-8)
    assert report.energy == pytest.approx(196, abs=1e-6)
    assert report.energy_class == HYPER  # 196 > 2*72 - 2


def exact_traces(gg):
    """tr A^j for j = 1..4 as Python integers, with the closed forms for
    j <= 3 (tr A = 0, tr A^2 = 2 sum m^2, tr A^3 = 6 x weighted triangles)
    checked against integer matrix powers."""
    mult = {(u, v): m for u, v, m in gg.edges}
    triangles = sum(
        m_uv * m_vw * mult.get((u, w), 0)
        for (u, v), m_uv in mult.items()
        for (v2, w), m_vw in mult.items()
        if v2 == v
    )
    a = adjacency_matrix(gg).matrix
    powers = [np.linalg.matrix_power(a, j) for j in (1, 2, 3, 4)]
    traces = [int(np.trace(p)) for p in powers]
    assert traces[:3] == [0, 2 * sum(m * m for m in mult.values()), 6 * triangles]
    return traces


@pytest.mark.parametrize("name", ORACLE_GRAPHS + ["sym4_all_transpositions"])
def test_power_sums_match_exact_traces(name):
    gg = cat.ggraph_of(name)
    values = np.array(expand(spectrum(adjacency_matrix(gg))))
    top = max([1, *gg.to_multigraph().weighted_degrees()])  # bounds the spectral radius
    for j, exact in enumerate(exact_traces(gg), start=1):
        assert float(np.sum(values**j)) == pytest.approx(
            exact, abs=1e-9 * len(values) * top**j
        )


@pytest.mark.parametrize(
    "name", ["sym4_all_transpositions", "quaternion_ab", "sd16_ab", "genq3_ab"]
)
def test_incidence_factorization(name):
    # A = N^T N - D: N is the element-by-coset incidence, D the coset sizes
    gg = cat.ggraph_of(name)
    incidence = np.zeros((gg.group_order, gg.vertex_count), dtype=np.int64)
    cosets = [coset for part in gg.partitions for coset in part]
    for v, coset in enumerate(cosets):
        incidence[list(coset.elements), v] = 1
    sizes = np.diag(incidence.sum(axis=0))
    assert np.array_equal(incidence.T @ incidence - sizes, adjacency_matrix(gg).matrix)


def test_dihedral_1440_is_complete_bipartite_2_720():
    d1440 = make_dihedral(720)
    gg = build_ggraph(d1440, [d1440.designated["r"], d1440.designated["s"]])
    report = spectrum(adjacency_matrix(gg))
    assert report.dimension == 722
    root = math.sqrt(1440)
    assert_spectrum(report, [(root, 1), (0, 720), (-root, 1)], tol=1e-9)


@pytest.mark.parametrize(
    "name", ["sym3_all_transpositions", "sd16_ab", "quaternion_ab", "z3z3_s1"]
)
def test_trace_and_handshake_invariants(name):
    m = adjacency_matrix(cat.ggraph_of(name))
    report = spectrum(m)
    values = expand(report)
    assert abs(sum(values)) <= 1e-8 * report.dimension
    entry_sq = float(np.sum(np.square(m.matrix)))
    assert sum(v * v for v in values) == pytest.approx(entry_sq, rel=1e-6)


@pytest.mark.parametrize("name", ["dihedral10_rs", "sd16_ab", "sym4_12_tailcycle", "alt4_12i"])
def test_bipartite_spectra_are_symmetric(name):
    report = spectrum(adjacency_matrix(cat.ggraph_of(name)))
    spec = {round(v, 6): m for v, m in report.eigenvalues}
    for v, m in report.eigenvalues:
        assert spec.get(round(-v, 6)) == m


@pytest.mark.parametrize("name", ["sym3_all_transpositions", "klein_ab_ab", "quaternion_ab"])
def test_regular_graph_max_eigenvalue_is_degree(name):
    gg = cat.ggraph_of(name)
    degrees = set(gg.to_multigraph().weighted_degrees())
    assert len(degrees) == 1
    report = spectrum(adjacency_matrix(gg))
    assert report.eigenvalues[0][0] == pytest.approx(degrees.pop(), abs=1e-8)


# -- diagnostics --------------------------------------------------------------


def test_diagnostics_d10():
    gg = cat.ggraph_of("dihedral10_rs")
    diag = matrix_diagnostics(adjacency_matrix(gg), gg)
    assert diag.ok
    assert diag.block_row_sums == (5, 2)
    assert diag.derived_orders == (5, 2)
    assert diag.edge_total == 10


def test_diagnostics_s3_transpositions():
    gg = cat.ggraph_of("sym3_all_transpositions")
    diag = matrix_diagnostics(adjacency_matrix(gg), gg)
    assert diag.ok
    assert set(diag.row_sums) == {4}
    assert diag.derived_orders == (2, 2, 2)
    assert diag.edge_total == 18


def test_diagnostics_flags_degree_gap_of_one():
    gg = cat.ggraph_of("sym3_all_transpositions")
    m = adjacency_matrix(gg)
    tampered = m.matrix.copy()
    # drop one unit between classes 0 and 1 without touching a diagonal block
    u = 0
    v = next(v for v in range(3, 6) if tampered[u, v])
    tampered[u, v] -= 1
    tampered[v, u] -= 1
    bad = AdjMatrix(matrix=tampered)
    diag = matrix_diagnostics(bad, gg)
    assert not diag.blocks_uniform
    assert not diag.row_sums_match_degrees
    assert diag.not_a_ggraph
    assert diag.not_a_ggraph_reason == "degrees not uniform within class 0"
    assert not diag.ok


def test_diagnostics_refuses_an_entry_inside_a_class_block():
    gg = cat.ggraph_of("sym3_all_transpositions")
    tampered = adjacency_matrix(gg).matrix.copy()
    # vertices 0 and 1 are both cosets of <(12)>, in class 0
    tampered[0, 1] += 1
    tampered[1, 0] += 1
    with pytest.raises(InvalidMatrixError, match=r"diagonal block \[0:3\] must be entirely zero"):
        matrix_diagnostics(AdjMatrix(matrix=tampered), gg)


def test_diagnostics_flags_uniform_blocks_the_rule_refuses():
    # three more units on a matching between classes 0 and 1: the blocks stay
    # uniform with row sums 7, 7, 4, no two of which differ by one, and 7 is
    # no multiple of k - 1 = 2
    gg = cat.ggraph_of("sym3_all_transpositions")
    m = adjacency_matrix(gg)
    tampered = m.matrix.copy()
    for u in range(3):
        tampered[u, u + 3] += 3
        tampered[u + 3, u] += 3
    bad = AdjMatrix(matrix=tampered)
    diag = matrix_diagnostics(bad, gg)
    assert diag.blocks_uniform
    assert diag.block_row_sums == (7, 7, 4)
    assert diag.derived_orders == (None, None, 2)
    assert diag.not_a_ggraph
    assert diag.not_a_ggraph_reason == "class 0: size*degree = 21 != 2|E|/k = 18"
    assert not diag.ok


def _one_more_unit(a):
    a = a.copy()
    a[0, 2] += 1
    a[2, 0] += 1
    return a


@pytest.mark.parametrize(
    "tamper,reason",
    [
        # the parameters of |G| = 20 with orders 10 and 4, which the rule accepts
        (lambda a: 2 * a, None),
        (_one_more_unit, "degrees not uniform within class 0"),
    ],
    ids=["doubled", "one-unit"],
)
def test_diagnostics_on_a_tampered_bipartite_matrix(tamper, reason):
    gg = cat.ggraph_of("dihedral10_rs")  # K_{2,5}
    m = adjacency_matrix(gg)
    bad = AdjMatrix(matrix=tamper(m.matrix))
    diag = matrix_diagnostics(bad, gg)
    assert diag.not_a_ggraph == (reason is not None)
    assert diag.not_a_ggraph_reason == reason
    assert not diag.ok


def test_diagnostics_no_gap_flag_for_bipartite():
    # degrees 2 and 3 differ by one, but with k = 2 that is legitimate
    gg = cat.ggraph_of("sym4_12_tailcycle")
    diag = matrix_diagnostics(adjacency_matrix(gg), gg)
    assert not diag.not_a_ggraph
    assert diag.ok


@pytest.mark.parametrize(
    "classes", [[[0, 2], [1]], [[0, 1], [2]], [[0], [1, 2]]],
    ids=["noncontiguous", "improper", "contiguous-proper"],
)
def test_adjacency_from_multigraph_ignores_a_stored_partition(classes):
    path = path_graph(3)
    plain = adjacency_from_multigraph(path)
    path.classes = classes
    adj = adjacency_from_multigraph(path)
    assert np.array_equal(adj.matrix, plain.matrix)
    assert spectrum(adj) == spectrum(plain)


def test_diagnostics_rejects_mismatched_pair():
    gg = cat.ggraph_of("dihedral10_rs")
    other = adjacency_matrix(cat.ggraph_of("sd16_ab"))
    with pytest.raises(InvalidPairError):
        matrix_diagnostics(other, gg)


def test_diagnostics_single_vertex_graph():
    z6 = make_cyclic(6)
    gg = build_ggraph(z6, [z6.index_of_label("1")])
    diag = matrix_diagnostics(adjacency_matrix(gg), gg)
    assert diag.ok
    assert diag.derived_orders == (None,)


def test_matrix_csv_round_trips():
    from ggraphs import matrix_csv

    m = adjacency_matrix(cat.ggraph_of("quaternion_ab"))
    text = matrix_csv(m)
    rows = [[int(x) for x in line.split(",")] for line in text.strip().splitlines()]
    assert np.array_equal(np.array(rows), m.matrix)
