"""Workload ``spectra``: adjacency matrix → spectrum → matrix diagnostics.

Coset graphs of dimension 6-150 and the nine fixtures.  The graphs are
built during set-up, so the passes spend their time in ``ggraphs.spectral``
alone and group construction shows only in ``setup_s``.  The inputs do not
depend on the seed: a spectrum does not depend on vertex labels, and the
dimensions are what sets the cost.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

import cases
import oracles
from job import Job

K = oracles.complete_bipartite_spectrum
# (input, closed-form spectrum or None)
COSET_GRAPHS = [
    (cases.perm("sym:4", "make_symmetric", 4, 24, ["(1 2)", "(1 2 3 4)"]), None),
    (cases.perm("sym:4", "make_symmetric", 4, 24, ["(1 2 3)", "(1 2 3 4)"]), None),
    (cases.perm("sym:4", "make_symmetric", 4, 24, ["(1 2)", "(2 3)", "(3 4)"]), None),
    (cases.perm("alt:4", "make_alternating", 4, 12, ["(1 2 3)", "(1 2 4)", "(1 3 4)"]), None),
    (cases.perm("alt:5", "make_alternating", 5, 60, ["(1 2 3)", "(1 2 3 4 5)"]), None),
    (cases.perm("sym:5", "make_symmetric", 5, 120, ["(1 2)", "(1 2 3 4 5)"]), None),
    # <a> and <b> meet in {e, a^n} in Q_4n, so every edge is doubled.
    (cases.normal_form("genq:16", "make_generalized_quaternion", 16, oracles.quaternion(16),
                       ["a", "b"]), K(2, 16, 2)),
    (cases.normal_form("semidihedral:8", "make_semidihedral", 8, oracles.semidihedral(8),
                       ["a", "b"]), K(2, 32)),
    (cases.normal_form("dihedral:40", "make_dihedral", 40, oracles.dihedral(40), ["r", "s"]),
     K(2, 40)),
    (cases.normal_form("dihedral:148", "make_dihedral", 148, oracles.dihedral(148), ["r", "s"]),
     K(2, 148)),
    (cases.KLEIN, oracles.OCTAHEDRON_SPECTRUM),
]
FIXTURE_SPECTRA = {
    "k25": K(2, 5),
    "star4": K(1, 4),
    "octahedron": oracles.OCTAHEDRON_SPECTRUM,
}
FIXTURES = [
    "cube", "dodecahedron", "icosahedron", "k25", "octahedron", "path4",
    "rhombic_dodecahedron", "star4", "turan_13_4",
]


def prepare(seed, root, workdir, tracer):
    import ggraphs
    from ggraphs.io import read_edge_list

    jobs = []
    for case, expected in COSET_GRAPHS:
        gg = cases.build(ggraphs, case, tracer)
        jobs.append(_job(ggraphs, case.name, gg, None,
                         oracles.coset_graph_stats(case.order, case.orders), list(case.orders),
                         expected))
    for name in FIXTURES:
        mg = tracer.call("io", read_edge_list, root / "fixtures" / f"{name}.edges")
        jobs.append(_job(ggraphs, f"fixtures/{name}.edges", None, mg, None, None,
                         FIXTURE_SPECTRA.get(name)))
    return jobs


def _job(ggraphs, name, gg, mg, stats, orders, expected):
    def run(tr):
        if gg is not None:
            adj = tr.call("spectral", ggraphs.adjacency_matrix, gg)
        else:
            adj = tr.call("spectral", ggraphs.adjacency_from_multigraph, mg)
        report = tr.call("spectral", ggraphs.spectrum, adj)
        diag = tr.call("spectral", ggraphs.matrix_diagnostics, adj, gg) if gg is not None else None
        return adj, report, diag

    def check(out):
        adj, report, diag = out
        problems = oracles.spectrum_problems(adj.matrix, report.eigenvalues)
        energy = float(np.sum(np.abs(np.linalg.eigvalsh(adj.matrix.astype(np.float64)))))
        if abs(report.energy - energy) > oracles.GROUP_TOL * max(1, adj.dimension):
            problems.append(f"energy {report.energy}, eigvalsh gives {energy}")
        if expected is not None and not oracles.same_spectrum(report.eigenvalues, expected):
            problems.append(f"spectrum {report.eigenvalues}, closed form {expected}")
        if stats is not None:
            problems += _diagnostic_problems(adj, diag, stats, orders)
        return [f"{name}: {p}" for p in problems]

    def counts(out):
        return Counter({"spectral.calls": 3 if gg is not None else 2,
                        "spectral.dimension_sum": out[0].dimension})

    return Job(
        name=name, run=run, check=check, counts=counts,
        fingerprint=lambda out: (out[1].dimension, out[1].eigenvalues, out[1].energy),
    )


def _diagnostic_problems(adj, diag, stats, orders):
    problems = []
    own_rows = [d for size, d in zip(stats["class_sizes"], stats["class_degrees"]) for _ in range(size)]
    if list(diag.row_sums) != own_rows:
        problems.append("row sums differ from the class degrees o(s_i)(k-1)")
    if int(adj.matrix.sum()) != 2 * stats["total"]:
        problems.append(f"entries sum to {int(adj.matrix.sum())}, expected {2 * stats['total']}")
    if len(orders) > 1 and list(diag.derived_orders) != orders:
        problems.append(f"derived orders {diag.derived_orders}, expected {orders}")
    if not diag.ok:
        problems.append("matrix_diagnostics flags a coset graph")
    return problems
