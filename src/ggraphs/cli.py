"""Command-line interface.

Subcommands: build, analyze, characterize, spectrum, infinite, export-dot.

Group specs use a mini-language: ``cyclic:n``, ``sym:n``, ``alt:n``,
``dihedral:n``, ``genq:n``, ``semidihedral:k``, ``klein``, ``trivial``,
``perm:<cycles;cycles;...>``.  Generators are named by element label (cycle
notation or normal form, e.g. ``(1 2)`` or ``a``), by a designated generator
name (``r``, ``s``, ``t``, ``a``, ``b``), or by element index.

Exit codes: 0 success (ACCEPT for characterize), 2 bad input or I/O failure,
3 non-generating set, 4 REFUSE, 5 UNDETERMINED.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import io as gio
from .errors import GGraphError, NotAGeneratingSetError
from .multigraph import SIZE_BOUND

# Each command imports the layers it runs, so a process loads only those;
# groups and spectral would also bring numpy.
if TYPE_CHECKING:
    from .groups import GroupTable
    from .multigraph import Multigraph

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_NOT_GENERATING = 3
EXIT_REFUSE = 4
EXIT_UNDETERMINED = 5


def parse_group_spec(spec: str) -> GroupTable:
    from .groups import (
        closure_from_permutations,
        make_alternating,
        make_cyclic,
        make_dihedral,
        make_generalized_quaternion,
        make_klein,
        make_semidihedral,
        make_symmetric,
        make_trivial,
    )

    name, _, arg = spec.partition(":")
    name = name.strip().lower()
    if name == "klein":
        return make_klein()
    if name == "trivial":
        return make_trivial()
    if name == "perm":
        if not arg:
            raise ValueError("perm: needs at least one cycle expression")
        return closure_from_permutations(
            [chunk.strip() for chunk in arg.split(";") if chunk.strip()]
        )
    makers = {
        "cyclic": make_cyclic,
        "sym": make_symmetric,
        "alt": make_alternating,
        "dihedral": make_dihedral,
        "genq": make_generalized_quaternion,
        "semidihedral": make_semidihedral,
    }
    if name not in makers:
        raise ValueError(f"unknown group spec {spec!r}")
    try:
        n = int(arg)
    except ValueError:
        raise ValueError(f"group spec {spec!r} needs an integer parameter")
    return makers[name](n)


def split_generator_list(text: str) -> list[str]:
    """Split a comma-separated list, ignoring commas inside parentheses."""
    out, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur).strip())
    return [tok for tok in out if tok]


def resolve_generator(g: GroupTable, token: str) -> int:
    from .groups import cycle_notation, parse_cycles

    if token in g.designated:
        return g.designated[token]
    try:
        return g.index_of_label(token)
    except KeyError:
        pass
    if token.startswith("("):
        # normalize spaced/comma'd cycle notation; fixed points drop out of
        # the label either way
        try:
            return g.index_of_label(cycle_notation(parse_cycles(token)))
        except (GGraphError, KeyError, ValueError):
            pass
    try:
        idx = int(token)
    except ValueError:
        raise ValueError(f"unknown generator {token!r}")
    if not 0 <= idx < g.order:
        raise ValueError(f"generator index {idx} out of range")
    return idx


def load_graph_input(path: str) -> Multigraph:
    text = Path(path).read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        return gio.loads(text).to_multigraph()
    return gio.parse_edge_list(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_build(args) -> int:
    if args.out and args.format == "json":
        # compiled after numpy, the writer raises this process's peak RSS
        # (by about 0.4 MB for sym:6); compiled before, it does not
        from . import _write  # noqa: F401
    from .ggraph import build_ggraph, predicted_stats
    from .groups import make_gen_sequence

    group = parse_group_spec(args.group)
    tokens = split_generator_list(args.gens)
    elements = [resolve_generator(group, tok) for tok in tokens]
    seq = make_gen_sequence(group, elements)
    gg = build_ggraph(group, seq)
    stats = predicted_stats(group, seq)
    mg = gg.to_multigraph()
    class_degrees = mg.class_degrees()

    print(f"group {args.group} (order {group.order}), "
          f"generators {', '.join(gg.gen_labels)}")
    print(f"{'class':>5} {'generator':>12} {'order':>5} "
          f"{'vertices':>9} {'predicted':>9} {'degree':>7} {'predicted':>9}")
    for c in range(gg.k):
        lo, hi = gg.class_offsets[c], gg.class_offsets[c + 1]
        shown = "mixed" if class_degrees[c] is None else class_degrees[c]
        print(f"{c:>5} {gg.gen_labels[c]:>12} {gg.gen_orders[c]:>5} "
              f"{hi - lo:>9} {stats.class_vertex_counts[c]:>9} "
              f"{shown!s:>7} {stats.class_degrees[c]:>9}")
    print(f"vertices: {gg.vertex_count} (predicted {stats.vertex_count});  "
          f"edge multiplicity: {mg.edge_multiplicity_total()} "
          f"(predicted {stats.edge_multiplicity_total})")

    if args.out:
        doc = gio.document_from_ggraph(gg, list(group.labels), args.group)
        if args.format == "json":
            gio.write_document(doc, args.out)
        elif args.format == "dot":
            gio.export_dot(doc, args.out)
        else:
            Path(args.out).write_text(
                gio.format_edge_list(mg), encoding="utf-8"
            )
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    # an input that fails to load ends the command before analysis loads
    mg = load_graph_input(args.input)
    from .analysis import analyze

    report = analyze(mg)
    family = None
    if mg.n <= SIZE_BOUND:
        from .iso import recognize_family

        family = recognize_family(mg)
    print(f"vertices: {mg.n}  edge multiplicity: {mg.edge_multiplicity_total()}")
    print(f"connected: {report.connected}")
    print(f"eulerian: {report.eulerian}")
    print(f"bipartite: {report.bipartite}")
    if report.biregular:
        print(f"biregular: True {report.biregular_degrees}")
    else:
        print("biregular: False")
    if report.class_degrees is not None:
        print(f"partition valid (no intra-class edge): {report.is_k_partite_valid}")
        print(f"per-class degree uniform: {report.per_class_degree_uniform}")
        print(f"class degrees: {list(report.class_degrees)}")
    if family is not None:
        print(f"family: {family}")
    return EXIT_OK


def _parse_partition(text: str) -> list[list[int]]:
    classes = []
    for chunk in text.split(";"):
        ids = []
        for tok in chunk.replace(",", " ").split():
            try:
                ids.append(int(tok))
            except ValueError:
                raise ValueError(f"--partition: {tok!r} is not a vertex id") from None
        if ids:
            classes.append(ids)
    return classes


def cmd_characterize(args) -> int:
    from .characterize import ACCEPT, REFUSE, characterize

    mg = load_graph_input(args.input)
    partition = _parse_partition(args.partition) if args.partition else None
    if partition is None and mg.classes:
        partition = mg.classes if args.use_classes else None
    verdict = characterize(mg, partition)
    print(f"status: {verdict.status}")
    if verdict.status == ACCEPT:
        print(f"k: {verdict.k}")
        print(f"class sizes: {list(verdict.class_sizes or ())}")
        print(f"class degrees: {list(verdict.class_degrees or ())}")
        print(f"group order: {verdict.group_order}")
        print(f"generator orders: {list(verdict.gen_orders or ())}")
        if verdict.presentation:
            print(f"order-constraints presentation: {verdict.presentation}")
        return EXIT_OK
    print(f"reason: {verdict.refusal_reason}")
    return EXIT_REFUSE if verdict.status == REFUSE else EXIT_UNDETERMINED


def _fixed(value: float) -> str:
    """Six decimals, with a value that rounds to zero printed unsigned."""
    text = f"{value:.6f}"
    return "0.000000" if text == "-0.000000" else text


def cmd_spectrum(args) -> int:
    from .spectral import adjacency_from_multigraph, matrix_csv, spectrum

    adj = adjacency_from_multigraph(load_graph_input(args.input))
    report = spectrum(adj)
    payload = {
        "dimension": report.dimension,
        "eigenvalues": [
            {"value": _fixed(val), "multiplicity": mult}
            for val, mult in report.eigenvalues
        ],
        "energy": f"{report.energy:.6f}",
        "energy_class": report.energy_class,
        "distinct_count": report.distinct_count,
        "energy_at_least_order": report.energy_at_least_order,
        "energy_at_upper_bound": report.energy_at_upper_bound,
    }
    text = gio.dumps(payload)
    print(text, end="")
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    if args.matrix_out:
        Path(args.matrix_out).write_text(matrix_csv(adj), encoding="utf-8")
    return EXIT_OK


def cmd_infinite(args) -> int:
    from .infinite import affine_ball, sl2z_ball

    grow = sl2z_ball if args.group == "sl2z" else affine_ball
    ball = grow(args.radius)
    interior = sum(1 for v in ball.vertices if v.interior)
    print(f"{args.group} ball radius {ball.radius}: "
          f"{ball.vertex_count} vertices ({interior} interior), "
          f"{len(ball.edges)} distinct edges")
    if args.out:
        gio.write_document(gio.document_from_ball(ball), args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_export_dot(args) -> int:
    text = Path(args.input).read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        doc = gio.loads(text)
    else:
        doc = gio.document_from_multigraph(gio.parse_edge_list(text))
    gio.export_dot(doc, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ggraphs",
        description="Coset graphs of groups: build, analyze, recognize, spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build the coset graph of (group, generators)")
    p.add_argument("--group", required=True, help="group spec, e.g. sym:3")
    p.add_argument("--gens", required=True,
                   help="comma-separated generators, e.g. '(1 2),(1 3),(2 3)'")
    p.add_argument("--out", help="output path")
    p.add_argument("--format", choices=("json", "dot", "edges"), default="json")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("analyze", help="structure report for a graph file")
    p.add_argument("input", help="JSON document or edge-list file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("characterize",
                       help="decide whether a graph arises from the coset construction")
    p.add_argument("input")
    p.add_argument("--partition",
                   help="explicit classes, e.g. '0 1; 2 3; 4 5'")
    p.add_argument("--use-classes", action="store_true", dest="use_classes",
                   help="use the partition stored in the input file")
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("spectrum", help="eigenvalues, multiplicities, energy")
    p.add_argument("input")
    p.add_argument("--out", help="also write the JSON report here")
    p.add_argument("--matrix-out", dest="matrix_out",
                   help="write the integer adjacency matrix as CSV")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("infinite", help="radius-bounded ball of an infinite group")
    p.add_argument("--group", required=True, choices=("sl2z", "affine"))
    p.add_argument("--radius", required=True, type=int)
    p.add_argument("--out", help="output JSON path")
    p.set_defaults(func=cmd_infinite)

    p = sub.add_parser("export-dot", help="convert a graph file to DOT")
    p.add_argument("input")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_dot)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; the exit-code boundary for every error it raises.

    ArithmeticError is bad input too: the spectrum's eigenvalue consistency
    checks raise it.
    """
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotAGeneratingSetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_GENERATING
    except (OSError, ValueError, ArithmeticError, GGraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
