"""Workload ``construct``: Γ(G, S) for a fixed list of groups as S varies.

Each job builds one group, then runs every one of its generating sets
through make_gen_sequence → build_ggraph → analyze → document_from_ggraph →
dumps → loads → to_multigraph, which is the library path behind
``ggraphs build`` and ``ggraphs analyze``.  Two more jobs grow the largest
SL2(Z) and affine balls the library allows.

The inputs do not depend on the seed: the job list is the paper's
experiment, and every job is deterministic.
"""

from __future__ import annotations

import math
from collections import Counter

import cases
import oracles
from job import Job


def _transpositions(n):
    return [f"({i} {i + 1})" for i in range(1, n)]


def _all_transpositions(n):
    return [f"({i} {j})" for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def _with_cycle(n):
    return ["(1 2)", "(" + " ".join(str(i) for i in range(1, n + 1)) + ")"]


def _three_cycles(n):
    return [f"(1 2 {i})" for i in range(3, n + 1)]


def _consecutive_three_cycles(n):
    return [f"({i} {i + 1} {i + 2})" for i in range(1, n - 1)]


def _perm_sets(spec, maker, arg, order, sets):
    return [cases.perm(spec, maker, arg, order, gens) for gens in sets]


def _nf_sets(spec, maker, arg, family, sets):
    return [cases.normal_form(spec, maker, arg, family, gens) for gens in sets]


# One job per entry: the group is built once, then each generating set runs.
GROUPS = [
    _perm_sets("sym:4", "make_symmetric", 4, 24,
               [_transpositions(4), _with_cycle(4), _all_transpositions(4)]),
    _perm_sets("sym:5", "make_symmetric", 5, 120,
               [_transpositions(5), _with_cycle(5), _all_transpositions(5)]),
    _perm_sets("sym:6", "make_symmetric", 6, 720, [_transpositions(6), _with_cycle(6)]),
    _perm_sets("alt:4", "make_alternating", 4, 12,
               [_three_cycles(4), _consecutive_three_cycles(4), ["(1 2 3)", "(1 2)(3 4)"]]),
    _perm_sets("alt:5", "make_alternating", 5, 60,
               [_three_cycles(5), _consecutive_three_cycles(5), ["(1 2 3)", "(1 2 3 4 5)"]]),
    _perm_sets("alt:6", "make_alternating", 6, 360,
               [_three_cycles(6), _consecutive_three_cycles(6)]),
    _nf_sets("dihedral:5", "make_dihedral", 5, oracles.dihedral(5), [["r", "s"], ["s", "t"]]),
    _nf_sets("dihedral:256", "make_dihedral", 256, oracles.dihedral(256),
             [["r", "s"], ["s", "t"], ["r", "s", "t"]]),
    _nf_sets("genq:2", "make_generalized_quaternion", 2, oracles.quaternion(2), [["a", "b"]]),
    _nf_sets("genq:128", "make_generalized_quaternion", 128, oracles.quaternion(128),
             [["a", "b"]]),
    _nf_sets("semidihedral:2", "make_semidihedral", 2, oracles.semidihedral(2), [["a", "b"]]),
    _nf_sets("semidihedral:64", "make_semidihedral", 64, oracles.semidihedral(64),
             [["a", "b"]]),
    # S7 is past the table-backed bound, so it is closed from two generators.
    _perm_sets("perm:(1 2);(1 2 3 4 5 6 7)", "closure_from_permutations",
               ["(1 2)", "(1 2 3 4 5 6 7)"], math.factorial(7), [_with_cycle(7)]),
]
SL2Z_RADIUS = 12
AFFINE_RADIUS = 1000


def prepare(seed, root, workdir, tracer):
    import ggraphs

    jobs = [_group_job(ggraphs, sets) for sets in GROUPS]
    jobs.append(_ball_job(ggraphs.sl2z_ball, "sl2z", SL2Z_RADIUS, (4, 6), (2, 3)))
    jobs.append(_ball_job(ggraphs.affine_ball, "affine", AFFINE_RADIUS, (2, 2), (2, 2)))
    return jobs


def _group_job(ggraphs, sets):
    from ggraphs.io import document_from_ggraph, dumps, loads

    spec, order = sets[0].spec, sets[0].order

    def run(tr):
        g = cases.make_group(ggraphs, sets[0], tr)
        outs = []
        for case in sets:
            elements = [cases.resolve(g, x) for x in case.gens]
            seq = tr.call("groups", ggraphs.make_gen_sequence, g, elements)
            gg = tr.call("ggraph", ggraphs.build_ggraph, g, seq)
            report = tr.call("analysis", ggraphs.analyze, gg)
            doc = tr.call("io", document_from_ggraph, gg, list(g.labels), spec)
            text = tr.call("io", dumps, doc)
            back = tr.call("io", loads, text)
            mg = tr.call("io", back.to_multigraph)
            outs.append((seq, gg, report, doc, text, back, mg))
        return g.order, outs

    def check(out):
        group_order, outs = out
        if group_order != order:
            return [f"{spec}: order {group_order}, expected {order}"]
        problems = []
        for case, (seq, gg, report, doc, text, back, mg) in zip(sets, outs):
            problems += [f"{case.name}: {p}" for p in _check_graph(
                order, list(case.orders), seq, gg, report, doc, back, mg)]
        return problems

    def counts(out):
        group_order, outs = out
        c = Counter()
        for seq, gg, report, doc, text, back, mg in outs:
            c["ggraph.vertices"] += gg.vertex_count
            c["ggraph.edge_units"] += sum(m for _, _, m in gg.edges)
            c["io.bytes"] += 2 * len(text.encode())
        return c

    return Job(
        name=spec, run=run, check=check, counts=counts,
        fingerprint=lambda out: (out[0], tuple(hash(o[4]) for o in out[1])),
    )


def _check_graph(order, own, seq, gg, report, doc, back, mg):
    k = len(own)
    stats = oracles.coset_graph_stats(order, own)
    problems = []
    if list(seq.orders) != own:
        problems.append(f"generator orders {list(seq.orders)}, expected {own}")
    sizes = [len(part) for part in gg.partitions]
    if sizes != stats["class_sizes"]:
        problems.append(f"class sizes {sizes}, expected {stats['class_sizes']}")
    for c, part in enumerate(gg.partitions):
        members = sorted(x for coset in part for x in coset.elements)
        if members != list(range(order)):
            problems.append(f"cosets of class {c} do not partition G")
        if any(len(coset.elements) != own[c] for coset in part):
            problems.append(f"a coset of class {c} has the wrong size")
    degree = [0] * gg.vertex_count
    for u, v, m in gg.edges:
        degree[u] += m
        degree[v] += m
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    for c in range(k):
        seen = set(degree[offsets[c]:offsets[c + 1]])
        if seen != {stats["class_degrees"][c]}:
            problems.append(f"class {c} degrees {sorted(seen)}, expected {stats['class_degrees'][c]}")
    total = sum(degree) // 2
    if total != stats["total"]:
        problems.append(f"total multiplicity {total}, expected {stats['total']}")
    even = all(d % 2 == 0 for d in stats["class_degrees"])
    expected_report = {
        "connected": True,
        "eulerian": even,
        "bipartite": k == 2,
        "biregular": k == 2,
        "biregular_degrees": tuple(own) if k == 2 else None,
        "is_k_partite_valid": True,
        "per_class_degree_uniform": True,
        "class_degrees": tuple(stats["class_degrees"]),
    }
    for field, value in expected_report.items():
        if getattr(report, field) != value:
            problems.append(f"analyze: {field} = {getattr(report, field)}, expected {value}")
    if back.to_dict() != doc.to_dict():
        problems.append("loads(dumps(doc)) differs from doc")
    if mg.n != sum(sizes) or mg.edge_multiplicity_total() != stats["total"]:
        problems.append("to_multigraph changed the vertex count or the multiplicity")
    if [len(c) for c in (mg.classes or [])] != sizes:
        problems.append("to_multigraph lost the partition")
    return problems


def _ball_job(grow, kind, radius, coset_sizes, neighbours):
    """A ball of the coset tree of a free product with amalgamation.

    Class c cosets have ``coset_sizes[c]`` members and ``neighbours[c]``
    neighbours, each joined with multiplicity coset_sizes[c] / neighbours[c].
    """

    def run(tr):
        return tr.call("infinite", grow, radius)

    def check(ball):
        problems = []
        expected = oracles.tree_ball_sizes(radius, neighbours)
        found = Counter(v.class_id for v in ball.vertices)
        if [found[0], found[1]] != expected:
            problems.append(f"{kind}: class sizes {[found[0], found[1]]}, expected {expected}")
        if len(ball.edges) != len(ball.vertices) - 1:
            problems.append(f"{kind}: {len(ball.edges)} edges on {len(ball.vertices)} vertices, not a tree")
        degree = Counter()
        for u, v, m in ball.edges:
            degree[u] += m
            degree[v] += m
            c = ball.vertices[u].class_id
            if m != coset_sizes[c] // neighbours[c]:
                problems.append(f"{kind}: edge ({u},{v}) has multiplicity {m}")
                break
        for i, vertex in enumerate(ball.vertices):
            if len(vertex.elements) != coset_sizes[vertex.class_id]:
                problems.append(f"{kind}: vertex {i} has {len(vertex.elements)} members")
                break
            if vertex.interior != (vertex.distance < radius):
                problems.append(f"{kind}: vertex {i} interior flag is wrong")
                break
            if vertex.interior and degree[i] != coset_sizes[vertex.class_id]:
                problems.append(f"{kind}: interior vertex {i} has degree {degree[i]}")
                break
        return problems

    return Job(
        name=f"ball:{kind}", run=run, check=check,
        counts=lambda ball: Counter({"infinite.vertices": len(ball.vertices)}),
        fingerprint=lambda ball: (len(ball.vertices), tuple(ball.edges)),
    )
