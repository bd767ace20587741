"""No module of the package imports an underscored name from a sibling.

A name with a leading underscore is private to its module; a caller in
another module means the name belongs in the public interface.
"""

import ast
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
