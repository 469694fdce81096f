"""Workload ``cli``: the README's commands, each run as a fresh process.

Every command runs what the installed ``ggraphs`` console script runs
(``ggraphs.cli:entry``) in a new interpreter, with the working directory a
scratch directory of the run.  ``build`` writes JSON, edge-list and DOT files
that ``analyze``, ``characterize`` and ``export-dot`` read back.  Exit codes
0, 2, 3, 4 and 5 all occur, each where the README documents it.  The inputs
do not depend on the seed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter

import cases
import oracles
from job import Job

ENTRY = "from ggraphs.cli import entry; entry()"
TIMEOUT_S = 120

S3 = cases.perm("sym:3", "make_symmetric", 3, 6, ["(1 2)", "(1 3)", "(2 3)"])
S3_SMALL = cases.perm("sym:3", "make_symmetric", 3, 6, ["(1 2)", "(1 2 3)"])
S6 = cases.perm("sym:6", "make_symmetric", 6, 720, ["(1 2)", "(1 2 3 4 5 6)"])
SD16 = cases.normal_form("semidihedral:2", "make_semidihedral", 2, oracles.semidihedral(2),
                         ["a", "b"])
# The work runs in the command processes: peak RSS is that of the largest
# one, and times are scaled by run.process_reference(), not by the loop timed
# in the benchmark's own process.
IN_CHILD_PROCESSES = True
BALL_RADIUS = 2
SL2Z_NEIGHBOURS = (2, 3)


def _stats(case):
    return oracles.coset_graph_stats(case.order, case.orders)


def _build(case, out, fmt):
    argv = ["build", "--group", case.spec, "--gens", ",".join(case.gens), "--out", out]
    return argv + ["--format", fmt] if fmt != "json" else argv


# (argv, expected exit code, files written, file read, checks on the result)
def _commands(fixtures):
    return [
        (_build(S3, "s3.json", "json"), 0, ["s3.json"], None,
         [_build_printed(S3), _json_file("s3.json", S3)]),
        (_build(SD16, "sd16.edges", "edges"), 0, ["sd16.edges"], None,
         [_build_printed(SD16), _edge_file("sd16.edges", SD16)]),
        (_build(S6, "s6.json", "json"), 0, ["s6.json"], None,
         [_build_printed(S6), _json_file("s6.json", S6)]),
        (_build(S3_SMALL, "s3.dot", "dot"), 0, ["s3.dot"], None,
         [_build_printed(S3_SMALL), _dot_file("s3.dot", S3_SMALL)]),
        (["build", "--group", "sym:3", "--gens", "(1 2 3)"], 3, [], None, []),
        (["analyze", "s3.json"], 0, [], "s3.json", [_analyzed(S3)]),
        (["analyze", "sd16.edges"], 0, [], "sd16.edges", [_analyzed(SD16)]),
        (["analyze", "s6.json"], 0, [], "s6.json", [_analyzed(S6)]),
        (["analyze", "missing.json"], 2, [], None, []),
        (["characterize", f"{fixtures}/icosahedron.edges"], 4, [], None,
         [_printed("status: REFUSE")]),
        (["characterize", f"{fixtures}/cube.edges"], 0, [], None,
         [_printed("status: ACCEPT", "group order: 12", "generator orders: [3, 3]")]),
        # 480 vertices is past the 64-vertex search bound.
        (["characterize", "s6.json"], 5, [], "s6.json", [_printed("status: UNDETERMINED")]),
        (["spectrum", f"{fixtures}/octahedron.edges", "--matrix-out", "oct.csv"], 0,
         ["oct.csv"], None, [_octahedron(fixtures)]),
        (["infinite", "--group", "sl2z", "--radius", str(BALL_RADIUS), "--out", "ball.json"], 0,
         ["ball.json"], None, [_ball()]),
        (["export-dot", "s3.json", "--out", "s3-export.dot"], 0, ["s3-export.dot"], "s3.json",
         [_dot_file("s3-export.dot", S3)]),
        (["export-dot", "s6.json", "--out", "s6.dot"], 0, ["s6.dot"], "s6.json",
         [_dot_file("s6.dot", S6)]),
    ]


def environment(root):
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def setup_command(root):
    """A set-up sample for this workload: one cold import of the CLI module."""
    return [sys.executable, "-c", "import ggraphs.cli"], environment(root)


def prepare(seed, root, workdir, tracer):
    env = environment(root)
    done = tracer.call("cli.import", subprocess.run, setup_command(root)[0], env=env,
                       capture_output=True, timeout=TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"import ggraphs.cli failed: {done.stderr.decode()}")
    return [
        _job(argv, code, writes, reads, checks, workdir, env)
        for argv, code, writes, reads, checks in _commands(root / "fixtures")
    ]


def _job(argv, code, writes, reads, checks, workdir, env):
    layer = "cli." + argv[0].replace("-", "_")
    command = [sys.executable, "-c", ENTRY, *argv]

    def run(tr):
        return tr.call(layer, subprocess.run, command, cwd=workdir, env=env,
                       capture_output=True, text=True, timeout=TIMEOUT_S)

    def check(done):
        if done.returncode != code:
            return [f"{' '.join(argv)}: exit code {done.returncode}, expected {code}"
                    f" ({done.stderr.strip()[-200:]})"]
        return [f"{' '.join(argv)}: {p}" for c in checks for p in c(done.stdout, workdir)]

    def counts(done):
        files = writes + ([reads] if reads else [])
        return Counter({"io.bytes": sum((workdir / name).stat().st_size for name in files)})

    return Job(name=" ".join(argv), run=run, check=check, counts=counts,
               fingerprint=lambda done: (done.returncode, done.stdout))


# -- checks on what a command printed or wrote ---------------------------------


def _printed(*lines):
    def check(stdout, workdir):
        return [f"missing output line {line!r}" for line in lines if line not in stdout.splitlines()]
    return check


def _build_printed(case):
    s = _stats(case)
    n = sum(s["class_sizes"])
    return _printed(f"vertices: {n} (predicted {n});  "
                    f"edge multiplicity: {s['total']} (predicted {s['total']})")


def _analyzed(case):
    s = _stats(case)
    k = len(case.orders)
    lines = [
        f"vertices: {sum(s['class_sizes'])}  edge multiplicity: {s['total']}",
        "connected: True",
        f"eulerian: {all(d % 2 == 0 for d in s['class_degrees'])}",
        f"bipartite: {k == 2}",
        f"biregular: True {tuple(case.orders)}" if k == 2 else "biregular: False",
    ]
    return _printed(*lines)


def _json_file(name, case):
    s = _stats(case)

    def check(stdout, workdir):
        doc = json.loads((workdir / name).read_text())
        sizes = [len(part["vertices"]) for part in doc["partitions"]]
        total = sum(e["multiplicity"] for e in doc["edges"])
        if sizes != s["class_sizes"] or total != s["total"]:
            return [f"{name}: classes {sizes}, multiplicity {total}"]
        return []
    return check


def _edge_file(name, case):
    s = _stats(case)

    def check(stdout, workdir):
        sizes, total = [], 0
        for line in (workdir / name).read_text().splitlines():
            if line.startswith("partition:"):
                sizes.append(len(line.split()) - 1)
            elif line.strip():
                parts = line.split()
                total += int(parts[2]) if len(parts) == 3 else 1
        if sizes != s["class_sizes"] or total != s["total"]:
            return [f"{name}: classes {sizes}, multiplicity {total}"]
        return []
    return check


def _dot_file(name, case):
    s = _stats(case)

    def check(stdout, workdir):
        lines = (workdir / name).read_text().splitlines()
        edges = sum(1 for line in lines if " -- " in line)
        vertices = sum(1 for line in lines if "[label=" in line)
        if vertices != sum(s["class_sizes"]) or edges != s["total"]:
            return [f"{name}: {vertices} vertices, {edges} edge lines"]
        return []
    return check


def _octahedron(fixtures):
    def check(stdout, workdir):
        report = json.loads(stdout)
        found = [(float(e["value"]), e["multiplicity"]) for e in report["eigenvalues"]]
        problems = []
        if not oracles.same_spectrum(found, oracles.OCTAHEDRON_SPECTRUM):
            problems.append(f"octahedron spectrum {found}")
        expected = [[0] * 6 for _ in range(6)]
        for line in (fixtures / "octahedron.edges").read_text().splitlines():
            if line.strip() and not line.startswith("#"):
                u, v = map(int, line.split()[:2])
                expected[u][v] = expected[v][u] = 1
        rows = [[int(x) for x in row.split(",")] for row in (workdir / "oct.csv").read_text().split()]
        if rows != expected:
            problems.append("oct.csv is not the fixture's adjacency matrix")
        return problems
    return check


def _ball():
    sizes = oracles.tree_ball_sizes(BALL_RADIUS, SL2Z_NEIGHBOURS)
    interior = oracles.tree_ball_sizes(BALL_RADIUS - 1, SL2Z_NEIGHBOURS)
    n = sum(sizes)

    def check(stdout, workdir):
        problems = _printed(f"sl2z ball radius {BALL_RADIUS}: {n} vertices "
                            f"({sum(interior)} interior), {n - 1} distinct edges")(stdout, workdir)
        doc = json.loads((workdir / "ball.json").read_text())
        if [len(part["vertices"]) for part in doc["partitions"]] != sizes:
            problems.append(f"ball.json classes differ from {sizes}")
        return problems
    return check
