"""Each command loads only the layers it runs; the public surface holds.

numpy loads only with the group and spectral layers, and no command loads
dataclasses.  The module checks each run in a fresh interpreter, since the
test process has imported every module long before.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ggraphs

ROOT = Path(__file__).resolve().parent.parent
FIXDIR = ROOT / "fixtures"

# Every name ggraphs/__init__.py imported eagerly before its group and
# spectral layers became lazy, but those in REMOVED.
EXPORTED = [
    "StructureReport", "analyze", "check_subgroup_subgraph",
    "ACCEPT", "REFUSE", "UNDETERMINED", "CharacterizationVerdict", "characterize",
    "characterize_bipartite", "turan_verdict", "witness_search",
    "ClosureOverflowError", "GGraphError", "InvalidInputError", "InvalidMatrixError",
    "InvalidPairError", "InvalidParameterError", "InvalidPartitionError",
    "NotAGeneratingSetError", "SizeLimitError", "TooLargeError",
    "GGraph", "PredictedStats", "build_ggraph", "predicted_stats",
    "Coset", "GenSequence", "GroupTable", "closure_from_permutations", "element_order",
    "make_alternating", "make_cyclic", "make_dihedral", "make_direct_product",
    "make_gen_sequence", "make_generalized_quaternion", "make_klein",
    "make_semidihedral", "make_symmetric", "make_trivial", "right_cosets",
    "INFINITE", "BallGraph", "affine_ball", "is_locally_finite", "sl2z_ball",
    "CanonicalForm", "FamilyTag", "are_isomorphic", "canonical_form", "recognize_family",
    "Multigraph",
    "AdjMatrix", "MatrixDiagnostics", "SpectrumReport", "adjacency_from_multigraph",
    "adjacency_matrix", "matrix_csv", "matrix_diagnostics", "spectrum",
]
# structure_report(mg) became analyze(graph), which takes any graph; ball
# elements became plain integer tuples, so their classes are gone
REMOVED = ["structure_report", "AffElem", "Mat2Z"]

# Runs the CLI in-process and reports its exit code, whether numpy and
# dataclasses loaded and which ggraphs submodules did; "order" lists numpy and
# those submodules in the order they loaded.
CLI_PROBE = """
import json, sys
from ggraphs.cli import main
code = main(sys.argv[1:])
order = [name for name in sys.modules if name == "numpy" or name.startswith("ggraphs.")]
modules = sorted(name[len("ggraphs."):] for name in order if name != "numpy")
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules,
                  "dataclasses": "dataclasses" in sys.modules, "modules": modules,
                  "order": order}))
"""

# The submodules each command must not load.  Every process of a command
# compiles and runs each module it imports, so a top-level import that brings
# one of these back slows every such command.  ``_write`` is the JSON writer,
# which only a command that writes JSON needs; ``witness`` (with ``ggraph``
# and ``iso``) is the witness search, which no command runs.
NOT_LOADED = {
    "export-dot": {"_write", "analysis", "characterize", "ggraph", "infinite", "iso", "witness"},
    "infinite": {"analysis", "characterize", "ggraph", "iso", "witness"},
    "analyze": {"_write", "characterize", "ggraph", "infinite", "witness"},
    "characterize": {"_write", "analysis", "ggraph", "infinite", "iso", "witness"},
    "spectrum": {"characterize", "iso", "witness"},
}


def _python(code, *args, cwd, stdin=None):
    """The JSON printed last by ``code`` run in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], input=stdin, cwd=cwd, capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def bare_loads_dataclasses(tmp_path_factory):
    """Whether a bare interpreter here loads dataclasses, as a site .pth can;
    then no command can be held to leaving it out."""
    code = "import json, sys; print(json.dumps('dataclasses' in sys.modules))"
    return _python(code, cwd=tmp_path_factory.mktemp("bare"))


@pytest.mark.parametrize("module", ["ggraphs", "ggraphs.cli"])
def test_import_leaves_numpy_out(tmp_path, bare_loads_dataclasses, module):
    code = (f"import json, sys, {module}; "
            "print(json.dumps(['numpy' in sys.modules, 'dataclasses' in sys.modules]))")
    numpy, dataclasses = _python(code, cwd=tmp_path)
    assert numpy is False
    assert bare_loads_dataclasses or dataclasses is False


@pytest.fixture
def cube_json(tmp_path):
    from ggraphs.io import document_from_multigraph, dumps, read_edge_list

    path = tmp_path / "cube.json"
    path.write_text(dumps(document_from_multigraph(read_edge_list(FIXDIR / "cube.edges"))))
    return path


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "{fixtures}/cube.edges"],
        ["analyze", "cube.json"],
        ["characterize", "{fixtures}/cube.edges"],
        ["characterize", "{fixtures}/icosahedron.edges"],
        ["characterize", "cube.json"],
        ["export-dot", "cube.json", "--out", "cube.dot"],
        ["infinite", "--group", "sl2z", "--radius", "2", "--out", "ball.json"],
    ],
    ids=["analyze_edges", "analyze_json", "characterize_accept", "characterize_refuse",
         "characterize_json", "export_dot", "infinite"],
)
def test_graph_commands_leave_numpy_out(tmp_path, cube_json, bare_loads_dataclasses, argv):
    argv = [arg.format(fixtures=FIXDIR) for arg in argv]
    result = _python(CLI_PROBE, *argv, cwd=tmp_path)
    assert result["code"] in (0, 4)
    assert result["numpy"] is False
    assert bare_loads_dataclasses or result["dataclasses"] is False
    assert not NOT_LOADED[argv[0]] & set(result["modules"]), result["modules"]


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--group", "sym:3", "--gens", "(1 2),(1 3),(2 3)", "--out", "s3.json"],
        ["spectrum", "{fixtures}/octahedron.edges", "--matrix-out", "oct.csv"],
    ],
    ids=["build", "spectrum"],
)
def test_group_and_spectral_commands_still_run(tmp_path, bare_loads_dataclasses, argv):
    argv = [arg.format(fixtures=FIXDIR) for arg in argv]
    result = _python(CLI_PROBE, *argv, cwd=tmp_path)
    assert (result["code"], result["numpy"]) == (0, True)
    assert bare_loads_dataclasses or result["dataclasses"] is False
    assert not NOT_LOADED.get(argv[0], set()) & set(result["modules"]), result["modules"]
    if argv[0] == "build":
        # compiling the writer after numpy would raise the process's peak memory
        order = result["order"]
        assert order.index("ggraphs._write") < order.index("numpy"), order


# analyze reads its input before it loads the analysis, and recognizes a
# family, which loads iso, only up to SIZE_BOUND vertices
@pytest.mark.parametrize(
    "argv, code, loaded",
    [
        (["analyze", "missing.json"], 2, set()),
        (["analyze", "path.edges"], 0, {"analysis"}),
        (["analyze", "{fixtures}/cube.edges"], 0, {"analysis", "iso"}),
    ],
    ids=["missing_file", "above_size_bound", "within_size_bound"],
)
def test_analyze_loads_iso_only_within_the_size_bound(tmp_path, argv, code, loaded):
    from ggraphs.multigraph import SIZE_BOUND

    # a path on SIZE_BOUND + 1 vertices
    lines = [f"{v} {v + 1}" for v in range(SIZE_BOUND)]
    (tmp_path / "path.edges").write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = [arg.format(fixtures=FIXDIR) for arg in argv]
    result = _python(CLI_PROBE, *argv, cwd=tmp_path)
    assert result["code"] == code
    assert set(result["modules"]) & {"analysis", "iso"} == loaded, result["modules"]


def test_every_exported_name_resolves():
    for name in EXPORTED:
        assert getattr(ggraphs, name) is not None, name
    for name in REMOVED:
        assert not hasattr(ggraphs, name), name
    assert set(EXPORTED) <= set(dir(ggraphs))
    assert ggraphs.spectrum is ggraphs.spectral.spectrum
    assert ggraphs.make_dihedral is ggraphs.groups.make_dihedral
    assert "make_dihedral" in vars(ggraphs)  # cached after the first lookup


def _equal_and_hashed_alike(a, b, other):
    assert a == b and hash(a) == hash(b) and a != other


def _named_tuple_records():
    """One record of each type that is a NamedTuple, built as callers build it."""
    from ggraphs.io import read_edge_list

    d10 = ggraphs.make_dihedral(5)
    seq = ggraphs.make_gen_sequence(d10, [d10.designated["r"], d10.designated["s"]])
    gg = ggraphs.build_ggraph(d10, seq)
    adj = ggraphs.adjacency_matrix(gg)
    return [
        ggraphs.analyze(gg), ggraphs.predicted_stats(d10, seq), ggraphs.recognize_family(gg),
        ggraphs.characterize(read_edge_list(FIXDIR / "cube.edges")),
        ggraphs.sl2z_ball(1).vertices[0], gg.partitions[0][0],
        ggraphs.spectrum(adj), ggraphs.matrix_diagnostics(adj, gg),
    ]


def _fields_refuse_assignment():
    records = _named_tuple_records()
    assert [type(r).__name__ for r in records] == [
        "StructureReport", "PredictedStats", "FamilyTag", "CharacterizationVerdict",
        "BallVertex", "Coset", "SpectrumReport", "MatrixDiagnostics",
    ]
    for record in records:
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)


def _bad_adjacency_refused():
    with pytest.raises(ggraphs.InvalidMatrixError, match="must be square"):
        ggraphs.AdjMatrix(np.zeros((2, 3), dtype=np.int64))


# What callers rely on in each record type: the NamedTuples get equality,
# hashing and read-only fields from tuple, the plain classes write their own.
@pytest.mark.parametrize(
    "check",
    [
        lambda: _equal_and_hashed_alike(
            ggraphs.CharacterizationVerdict("REFUSE", k=2, refusal_reason="odd"),
            ggraphs.CharacterizationVerdict("REFUSE", k=2, refusal_reason="odd"),
            ggraphs.CharacterizationVerdict("REFUSE", k=3, refusal_reason="odd"),
        ),
        lambda: _equal_and_hashed_alike(
            ggraphs.FamilyTag("cycle", (8,)), ggraphs.FamilyTag("cycle", (8,)),
            ggraphs.FamilyTag("cycle", (9,)),
        ),
        lambda: _equal_and_hashed_alike(
            ggraphs.CanonicalForm(2, ((0, 1, 1),), ((1, 0),)),
            ggraphs.CanonicalForm(2, ((0, 1, 1),)),
            ggraphs.CanonicalForm(2, ((0, 1, 2),), ((1, 0),)),
        ),
        _bad_adjacency_refused,
        _fields_refuse_assignment,
    ],
    ids=["verdict", "family_tag", "canonical_form", "adjacency", "frozen_fields"],
)
def test_records_keep_what_callers_use(check):
    check()


def test_star_import_binds_every_exported_name(tmp_path):
    # fresh, so no earlier lookup has cached a lazy name in the package
    code = "import json; ns = {}; exec('from ggraphs import *', ns); print(json.dumps(sorted(ns)))"
    assert set(EXPORTED) <= set(_python(code, cwd=tmp_path))


def test_lazy_submodules_resolve_as_attributes(tmp_path):
    names = ["groups", "spectral", "analysis", "iso", "infinite", "ggraph", "multigraph",
             "errors", "witness"]
    code = ("import json, ggraphs; "
            f"print(json.dumps([getattr(ggraphs, name).__name__ for name in {names!r}]))")
    assert _python(code, cwd=tmp_path) == [f"ggraphs.{name}" for name in names]
    assert ggraphs.witness_search.__module__ == "ggraphs.witness"
    # SIZE_BOUND moved to multigraph; iso still answers for it
    assert ggraphs.iso.SIZE_BOUND is ggraphs.multigraph.SIZE_BOUND


def test_import_ggraphs_loads_no_submodule(tmp_path):
    code = ("import json, sys, ggraphs; "
            "print(json.dumps([m for m in sys.modules if m.startswith('ggraphs.')]))")
    assert _python(code, cwd=tmp_path) == []


# Loading the submodule ggraphs.characterize binds it on the package, where the
# public function of the same name must stay, whichever way it is first loaded.
@pytest.mark.parametrize(
    "first",
    [
        "import ggraphs",
        "import ggraphs.characterize",
        "from ggraphs.characterize import ACCEPT",
        "import ggraphs; ggraphs.ACCEPT",
        "import ggraphs.cli; ggraphs.cli.main(['characterize', sys.argv[1]])",
        "from ggraphs.groups import make_dihedral\n"
        "from ggraphs.ggraph import build_ggraph\n"
        "from ggraphs.spectral import adjacency_matrix, matrix_diagnostics\n"
        "d10 = make_dihedral(5)\n"
        "gg = build_ggraph(d10, [d10.designated['r'], d10.designated['s']])\n"
        "matrix_diagnostics(adjacency_matrix(gg), gg)",
    ],
    ids=["package", "submodule", "from_submodule", "owned_name", "cli", "matrix_diagnostics"],
)
def test_characterize_stays_the_function(tmp_path, first):
    code = (f"import json, sys\n{first}\nimport ggraphs\n"
            "loaded = 'ggraphs.characterize' in sys.modules\n"
            "found = ggraphs.characterize\n"
            "print(json.dumps([loaded, type(found).__name__, found.__module__]))")
    loaded, kind, module = _python(code, str(FIXDIR / "cube.edges"), cwd=tmp_path)
    assert loaded == (first != "import ggraphs")  # each other case loads the submodule first
    assert (kind, module) == ("function", "ggraphs.characterize")


def test_import_as_binds_the_function_and_import_module_the_module(tmp_path):
    # ``import a.b as m`` reads ``b`` off the package, as README says
    code = ("import importlib, json\n"
            "import ggraphs.characterize as m\n"
            "module = importlib.import_module('ggraphs.characterize')\n"
            "print(json.dumps([type(m).__name__, type(module).__name__, module.__name__,\n"
            "                  module.characterize is m]))")
    assert _python(code, cwd=tmp_path) == ["function", "module", "ggraphs.characterize", True]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ggraphs.no_such_name  # noqa: B018


# Runs README's Python block one statement at a time, recording the value of
# each expression statement, then the values its comments state in words.
README_PROBE = """
import ast, json, sys
namespace, values = {}, []
for node in ast.parse(sys.stdin.read()).body:
    if isinstance(node, ast.Expr):
        values.append(str(eval(compile(ast.Expression(node.value), "README", "eval"), namespace)))
    else:
        exec(compile(ast.Module([node], []), "README", "exec"), namespace)
values.append(str(eval("analyze(gg).biregular_degrees", namespace)))
values.append(eval("spectrum(adjacency_matrix(gg)).energy_class", namespace))
print(json.dumps(values))
"""


def test_readme_library_example_runs_as_written(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    overview = readme.split("## Library overview", 1)[1]
    block = re.search(r"```python\n(.*?)```", overview, re.S).group(1)
    assert block.startswith("from ggraphs import *")
    values = _python(README_PROBE, cwd=tmp_path, stdin=block)
    biregular, family, energy, parameters, degrees, energy_class = values
    assert biregular == "True" and degrees == "(5, 2)"
    assert family == "complete_bipartite(2, 5)"
    assert energy.startswith("6.324") and energy_class == "HYPO"
    assert parameters == "(10, (5, 2))"
