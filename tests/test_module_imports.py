"""Import and design rules of the package, checked on the source.

No module imports an underscored name from a sibling: a name with a
leading underscore is private to its module, and a caller in another module
means the name belongs in the public interface.  No module holds an
`assert` statement: consistency checks raise, since `python -O` strips
asserts.  The `sphgeo` kernel
imports only `math`, `hill` imports no sibling module but `exactmath`, so the
simplex format (integer rows over one denominator) stays behind one module,
and no module imports numpy.  No module imports
`dataclasses` either: it loads `inspect`, and its decorator generates and
compiles the methods of each record at import, together about 45 ms of
every command's start-up.  Records are plain classes with `__slots__` or
`typing.NamedTuple`s, and importing the CLI loads neither `dataclasses` nor
`inspect`.  Importing `realize`, the tiling search, loads neither `angles`
nor `exactmath`.  The only function in `coxeter` that calls itself is
the walk of `coloring_search`: the enumerators are its clients and keep no
recursion of their own.  In `scenarios`, only `final_case_analysis` and
`case_a_enumeration` name `enumerate_diagrams`, so every endgame's diagram
search runs on lists the checker derives.  Vertex permutations are
enumerated only by the symmetry kernel: in `coxeter` only `kn_tables`
names `permutations`, and `scenarios` does not name it at all.  Every
definition in the package is named by the package outside its own body, so
none is kept only for the tests; the few exceptions are listed with their
reasons.
"""

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

import reptile_lab

PACKAGE = Path(reptile_lab.__file__).parent


def private_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or "reptile_lab" in (node.module or "")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield f"{path.name}:{node.lineno} imports {alias.name}"


def test_no_underscored_imports_across_modules():
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in private_imports(path)]
    assert found == []


def test_check_sees_a_private_import(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("from .coxeter import _edge\n")
    assert list(private_imports(bad)) == ["bad.py:1 imports _edge"]


def assert_statements(path):
    """`file:line` of each `assert` statement in a file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Assert)]


def test_no_assert_in_the_package():
    # consistency checks raise: `python -O` strips asserts
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in assert_statements(path)]
    assert found == []


def test_check_sees_an_assert(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(x):\n"
                   "    if x:\n"
                   "        assert x > 0, 'positive'\n"
                   "    return [y for y in x if y]  # assert in a comment\n"
                   "\n"
                   "class C:\n"
                   "    def g(self):\n"
                   "        assert self\n")
    assert assert_statements(bad) == ["bad.py:3", "bad.py:8"]


def imported_modules(path):
    """Top-level names of the modules a file imports, `__future__` aside."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." if node.level else node.module.split(".")[0])
    names.discard("__future__")
    return names


def test_sphgeo_kernel_is_stdlib_math_only():
    # the tiling search calls sphgeo at every node; numpy there costs about
    # a hundred times the arithmetic on 3-vectors
    assert imported_modules(PACKAGE / "sphgeo.py") == {"math"}


def test_hill_imports_no_sibling_module():
    # but the exact core: its determinant over Z is the one Bareiss
    # elimination every exact matrix runs
    tree = ast.parse((PACKAGE / "hill.py").read_text())
    assert {node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level} == {"exactmath"}
    assert "reptile_lab" not in imported_modules(PACKAGE / "hill.py")


def test_no_module_imports_numpy():
    # every verdict is exact; numpy would only add import time and memory
    found = [path.name for path in sorted(PACKAGE.glob("*.py"))
             if "numpy" in imported_modules(path)]
    assert found == []


def test_cli_and_scenarios_load_no_numpy():
    code = ("import sys, reptile_lab.cli, reptile_lab.scenarios; "
            "print('numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_tiling_search_loads_no_exact_core():
    # the search and verify paths run on floats and Fractions of pi; every
    # interpreter that only searches tilings would compile `angles` and
    # `exactmath` for nothing
    code = ("import sys, reptile_lab.realize; "
            "print(sorted(m for m in sys.modules if m.startswith('reptile_lab.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == str(["reptile_lab.realize", "reptile_lab.spherical",
                                       "reptile_lab.sphgeo"])


def test_no_module_imports_dataclasses():
    found = [path.name for path in sorted(PACKAGE.glob("*.py"))
             if "dataclasses" in imported_modules(path)]
    assert found == []


def test_cli_loads_no_dataclasses_or_inspect():
    code = ("import sys, reptile_lab.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_check_sees_a_numpy_import(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import math\nimport numpy.linalg as la\nfrom numpy import cross\n")
    assert imported_modules(bad) == {"math", "numpy"}


def radian_edge_calls(path):
    """`file:line` of each call of `law_of_cosines` or `opposite_edge` with
    `math.pi` (or a bare `pi`) in an argument: a caller that builds radians
    itself.  In line order."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and {"law_of_cosines", "opposite_edge"} & {
                getattr(node.func, "id", None), getattr(node.func, "attr", None)}):
            continue
        args = node.args + [kw.value for kw in node.keywords]
        if any((isinstance(n, ast.Attribute) and n.attr == "pi"
                and isinstance(n.value, ast.Name) and n.value.id == "math")
               or (isinstance(n, ast.Name) and n.id == "pi")
               for arg in args for n in ast.walk(arg)):
            found.append(node.lineno)
    return [f"{path.name}:{line}" for line in sorted(found)]


def test_exact_angles_become_edges_only_in_law_of_cosines():
    # `law_of_cosines` and `opposite_edge` take Fractions of pi and are the
    # one place they become radians on the way to edges
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in radian_edge_calls(path)]
    assert found == []


def test_check_sees_radians_passed_to_law_of_cosines(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import math\n"
                   "from math import pi\n"
                   "from . import spherical\n"
                   "from .spherical import law_of_cosines\n"
                   "\n"
                   "def edges(qs):\n"
                   "    return law_of_cosines(*(float(q) * math.pi for q in qs))\n"
                   "\n"
                   "def edge(t, p):\n"
                   "    return spherical.law_of_cosines(t, float(p) * pi, p)[0]\n"
                   "\n"
                   "def fine(qs):\n"
                   "    return law_of_cosines(*qs), math.cos(math.pi / 3)\n"
                   "\n"
                   "def one(q, l, r):\n"
                   "    return spherical.opposite_edge(pi * q, l, r)\n"
                   "\n"
                   "def fine_one(q, l, r):\n"
                   "    return opposite_edge(q, l, r) + math.pi\n")
    assert radian_edge_calls(bad) == ["bad.py:7", "bad.py:10", "bad.py:16"]


def self_recursive_functions(path):
    """Dotted names of the functions whose body calls them by name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                       and n.func.id == child.name for n in ast.walk(child)):
                    found.append(prefix + child.name)
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def test_coxeter_recursion_only_in_coloring_search():
    assert self_recursive_functions(PACKAGE / "coxeter.py") == ["coloring_search.walk"]


def test_check_sees_a_recursive_function(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def enumerate_things(m):\n"
        "    def extend(e):\n"
        "        if e < m:\n"
        "            extend(e + 1)\n"
        "    extend(0)\n"
        "\n"
        "class Tree:\n"
        "    def height(self):\n"
        "        def depth(node):\n"
        "            return 1 + max((depth(c) for c in node), default=0)\n"
        "        return depth(self.root)\n"
        "\n"
        "def flat(xs):\n"
        "    return sum(xs)\n")
    assert self_recursive_functions(bad) == ["enumerate_things.extend", "Tree.height.depth"]


def uses_outside(path, name, owners):
    """`file:line` of each use of `name`, as a variable or an attribute,
    outside the top-level functions and classes named in `owners`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = sorted(n.lineno for node in tree.body
                   if getattr(node, "name", None) not in owners
                   for n in ast.walk(node)
                   if name in (getattr(n, "id", None), getattr(n, "attr", None)))
    return [f"{path.name}:{line}" for line in lines]


def test_scenarios_search_diagrams_only_in_the_two_endgames():
    assert uses_outside(PACKAGE / "scenarios.py", "enumerate_diagrams",
                        {"final_case_analysis", "case_a_enumeration"}) == []


def test_check_sees_a_diagram_search_outside_the_endgames(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("from . import coxeter\n"
                   "from .coxeter import enumerate_diagrams\n"
                   "\n"
                   "def final_case_analysis(key):\n"
                   "    return enumerate_diagrams(5, [], None)\n"
                   "\n"
                   "def scenario_case_b(report):\n"
                   "    found = enumerate_diagrams(5, [], set().__contains__)\n"
                   "    search = coxeter.enumerate_diagrams\n"
                   "    return found, search\n"
                   "\n"
                   "class Endgame:\n"
                   "    def run(self):\n"
                   "        return enumerate_diagrams(3, [], None)\n")
    assert uses_outside(bad, "enumerate_diagrams", {"final_case_analysis"}) == [
        "bad.py:8", "bad.py:9", "bad.py:14"]


def test_vertex_permutations_enumerated_only_by_the_kernel():
    assert uses_outside(PACKAGE / "coxeter.py", "permutations", {"kn_tables"}) == []
    assert uses_outside(PACKAGE / "scenarios.py", "permutations", set()) == []


def referenced_names(node, attributes_only=False):
    """Names a subtree uses: variables, attributes and imported names, or
    only the attribute names."""
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute):
            yield n.attr
        elif attributes_only:
            continue
        elif isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.alias):
            yield n.name.split(".")[-1]


def definitions(tree):
    """(dotted name, node) of the top-level functions and classes and of
    the methods that are not dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if (isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (sub.name.startswith("__") and sub.name.endswith("__"))):
                    yield f"{node.name}.{sub.name}", sub


def unreferenced_definitions(paths):
    """Module-qualified names of the definitions that no file names outside
    the definition's own body.  A method counts as named only by an
    attribute of its name, so a variable of the same name does not keep it."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    everywhere = {method: Counter(name for tree in trees.values()
                                  for name in referenced_names(tree, method))
                  for method in (False, True)}
    found = []
    for path, tree in trees.items():
        for dotted, node in definitions(tree):
            name = dotted.rsplit(".", 1)[-1]
            method = "." in dotted
            if everywhere[method][name] == Counter(referenced_names(node, method))[name]:
                found.append(f"{path.stem}.{dotted}")
    return found


# Definitions no verdict or command reaches, kept on purpose.
KEPT = {
    # writes the format `from_fixture` reads; the enumerator's output is
    # pinned through it
    "coxeter.CoxeterDiagram.to_fixture",
}


def test_every_definition_is_used_by_the_package():
    assert sorted(unreferenced_definitions(sorted(PACKAGE.glob("*.py")))) == sorted(KEPT)


def test_check_sees_an_unused_definition(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        "import math\n"
        "\n"
        "def used(x):\n"
        "    return math.floor(x)\n"
        "\n"
        "def only_itself(n):\n"
        "    return n and only_itself(n - 1)\n"
        "\n"
        "class Shape:\n"
        "    def __init__(self, r):\n"
        "        self.r = r\n"
        "\n"
        "    def area(self):\n"
        "        return used(self.r)\n"
        "\n"
        "    def export(self):\n"
        "        return {'r': self.r}\n"
        "\n"
        "    def label(self):\n"
        "        return str(self.r)\n")
    app = tmp_path / "app.py"
    app.write_text("from .lib import Shape\n\nlabel = Shape(2).area()\nprint(label)\n")
    assert unreferenced_definitions([lib, app]) == ["lib.only_itself", "lib.Shape.export",
                                                    "lib.Shape.label"]
