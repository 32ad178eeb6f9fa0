"""Source hygiene: every name a package module imports is used by it, and
every function it defines is used outside the tests."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wigner"


def unused_imports(source: str) -> list:
    """Imported names that the module never reads (``__all__`` counts as a read)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_unused_import_detector():
    src = "import os\nimport numpy as np\nfrom math import comb, factorial\nfactorial(np.pi)\n"
    assert unused_imports(src) == ["comb (line 3)", "os (line 1)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _references(node) -> Counter:
    """Names read, attributes taken and identifier strings (``getattr``) in ``node``."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) \
                and n.value.isidentifier():
            out[n.value] += 1
    return out


def unreferenced_functions(package: dict, others: list, text: str = "") -> list:
    """Module-level functions and public methods of ``package`` (module name
    -> source) that no source, in ``package`` or ``others``, references outside
    the function's own definition, and whose name no word of ``text`` is."""
    trees = {name: ast.parse(src) for name, src in package.items()}
    refs = Counter()
    for tree in list(trees.values()) + [ast.parse(src) for src in others]:
        refs += _references(tree)
    words = set(re.findall(r"\w+", text))
    found = []
    for module, tree in trees.items():
        defs = []
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.append((f"{module}.{node.name}", node))
            elif isinstance(node, ast.ClassDef):
                defs += [(f"{module}.{node.name}.{item.name}", item)
                         for item in node.body if isinstance(item, ast.FunctionDef)
                         and not item.name.startswith("_")]
        for qualname, node in defs:
            outside = refs[node.name] - _references(node)[node.name]
            if not outside and node.name not in words:
                found.append(qualname)
    return sorted(found)


def test_unreferenced_function_detector():
    package = {"m": (
        "def used():\n    pass\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n\n"
        "class A:\n"
        "    def method(self):\n        return used()\n\n"
        "    def _private(self):\n        pass\n\n"
        "    def wrapped(self):\n        pass\n\n"
        "    def documented(self):\n        pass\n")}
    others = ["A().method()", "getattr(A, 'wrapped')"]
    assert unreferenced_functions(package, others, "see `documented`.") == \
        ["m.recursive"]
    assert unreferenced_functions(package, []) == \
        ["m.A.documented", "m.A.method", "m.A.wrapped", "m.recursive"]


def test_no_test_only_functions():
    package = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    others = [p.read_text() for folder in ("scripts", "perfbench")
              for p in sorted((ROOT / folder).glob("*.py"))]
    assert unreferenced_functions(package, others,
                                  (ROOT / "README.md").read_text()) == []
