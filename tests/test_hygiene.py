"""Source hygiene: every name a package module or test imports is used by
it, every name a package module imports is public in the module it comes
from, every function and class it defines is used outside the tests, every
optional parameter is passed by some caller outside the tests, no function
gives hbar a default, only the phase-space basis builds wavelet axes, a
test or the benchmark passes every command-line flag, and the config parser
reads keys by hand only where no dataclass holds them."""

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


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")),
    ids=lambda p: p.name if p.parent == SRC else f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def private_imports(source: str) -> list:
    """``_``-prefixed names, dunders aside, that a package module imports from
    another package module (a relative import)."""
    return sorted(
        f"{alias.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__"))


def test_private_import_detector():
    src = ("from . import __version__\nfrom .solve import _to_ms_2d, evolve\n"
           "from numpy import _core\n\ndef f():\n    from .basis import _restrict_once\n")
    assert private_imports(src) == ["_restrict_once (line 6)", "_to_ms_2d (line 2)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports(path):
    assert private_imports(path.read_text()) == []


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


def unreferenced_definitions(package: dict, others: list, text: str = "") -> list:
    """Module-level functions and classes, and public methods, of ``package``
    (module name -> source) that no source, in ``package`` or ``others``,
    references outside the definition itself, and whose name no word of
    ``text`` is."""
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
                defs.append((f"{module}.{node.name}", node))
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
        "    def documented(self):\n        pass\n\n"
        "class Alone:\n"
        "    def _clone(self):\n        return Alone()\n")}
    others = ["A().method()", "getattr(A, 'wrapped')"]
    assert unreferenced_definitions(package, others, "see `documented`.") == \
        ["m.Alone", "m.recursive"]
    assert unreferenced_definitions(package, []) == \
        ["m.A", "m.A.documented", "m.A.method", "m.A.wrapped", "m.Alone",
         "m.recursive"]


def test_no_test_only_functions():
    package = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    others = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    assert unreferenced_definitions(package, others,
                                    (ROOT / "README.md").read_text()) == []


def _callee_name(call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def unused_parameters(package: dict, others: list) -> list:
    """Defaulted parameters of the module-level functions and methods of
    ``package`` (module name -> source) that no call, in ``package`` or
    ``others``, passes by keyword or by position.  Calls match definitions by
    name; a call with ``*args`` or ``**kwargs`` passes every parameter, and a
    call of a class is a call of its ``__init__``."""
    calls = {}
    for src in list(package.values()) + others:
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.Call):
                calls.setdefault(_callee_name(node), []).append(node)
    found = []
    for module, src in package.items():
        defs = []
        for node in ast.parse(src).body:
            if isinstance(node, ast.FunctionDef):
                defs.append((node.name, f"{module}.{node.name}", node, 0))
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        continue
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    callee = node.name if item.name == "__init__" else item.name
                    defs.append((callee, f"{module}.{node.name}.{item.name}", item,
                                 0 if static else 1))
        for callee, qualname, node, skip in defs:
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            optional = [(a.arg, i - skip) for i, a in enumerate(positional)
                        if i >= first]
            optional += [(a.arg, None) for a, d in zip(args.kwonlyargs,
                                                       args.kw_defaults)
                         if d is not None]
            for name, index in optional:
                if not any(
                        any(isinstance(a, ast.Starred) for a in call.args)
                        or any(k.arg in (None, name) for k in call.keywords)
                        or (index is not None and len(call.args) > index)
                        for call in calls.get(callee, [])):
                    found.append(f"{qualname}({name})")
    return sorted(found)


def test_unused_parameter_detector():
    package = {"m": (
        "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n\n"
        "def g(x=1):\n    pass\n\n"
        "class A:\n"
        "    def __init__(self, x, y=0):\n        pass\n\n"
        "    def method(self, z=None):\n        pass\n\n"
        "    @staticmethod\n"
        "    def static(u=1, v=2):\n        pass\n")}
    others = ["f(0, 1)", "f(0, d=4)", "f(**opts)", "g(*args)", "A(1)",
              "A(1).method(5)", "A.static(1)"]
    assert unused_parameters(package, others[:2] + others[4:]) == \
        ["m.A.__init__(y)", "m.A.static(v)", "m.f(c)", "m.f(e)", "m.g(x)"]
    assert unused_parameters(package, others) == \
        ["m.A.__init__(y)", "m.A.static(v)"]


def test_no_unused_parameters():
    package = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    others = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    assert unused_parameters(package, others) == []


def hbar_defaults(source: str) -> list:
    """Functions of ``source`` that give a parameter named ``hbar`` a default."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        defaulted = positional[len(positional) - len(args.defaults):] + [
            a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        if any(a.arg == "hbar" for a in defaulted):
            found.append(f"{getattr(node, 'name', 'lambda')} (line {node.lineno})")
    return sorted(found)


def test_hbar_default_detector():
    src = ("def f(x, hbar=1.0):\n    pass\n\n"
           "def g(hbar, y=2):\n    pass\n\n"
           "class A:\n    hbar: float = 1.0\n\n"
           "    def m(self, *, hbar=2.0):\n        return lambda hbar=3: hbar\n")
    assert hbar_defaults(src) == ["f (line 1)", "lambda (line 11)", "m (line 10)"]


def test_hbar_has_one_home():
    """hbar comes from ``ModelParams``; a function that defaults it is a
    second home that a caller can reach by leaving it out."""
    assert [f"{p.name}: {f}" for p in sorted(SRC.glob("*.py"))
            for f in hbar_defaults(p.read_text())] == []


def basis_calls(source: str) -> list:
    """Lines of ``source`` that call ``WaveletBasis``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and _callee_name(node) == "WaveletBasis")


def test_basis_call_detector():
    src = ("from wigner import basis\nfrom wigner.basis import WaveletBasis\n\n"
           "b = WaveletBasis(filter=f, j_coarse=3, j_fine=5, domain=(0, 1))\n"
           "c = basis.WaveletBasis(f, 3, 5, (0, 1))\nd: WaveletBasis = b\n")
    assert basis_calls(src) == [4, 5]


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "assembly.py"],
    ids=lambda p: f"{p.parent.name}/{p.name}")
def test_only_the_phase_space_basis_builds_axes(path):
    """``PhaseSpaceBasis`` builds both axes from the [basis] settings; a
    second place that builds a ``WaveletBasis`` is a second home for them."""
    assert basis_calls(path.read_text()) == []


def unexercised_flags(cli_source: str, others: list) -> list:
    """``--flags`` that ``main`` of ``cli_source`` passes to ``add_argument``
    and that no source of ``others`` holds as a string literal."""
    main = next(node for node in ast.parse(cli_source).body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    literals = {n.value for src in others for n in ast.walk(ast.parse(src))
                if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    return sorted(a.value for call in ast.walk(main)
                  if isinstance(call, ast.Call) and _callee_name(call) == "add_argument"
                  for a in call.args
                  if isinstance(a, ast.Constant) and isinstance(a.value, str)
                  and a.value.startswith("--") and a.value not in literals)


def test_unexercised_flag_detector():
    cli = ("def main():\n    p.add_argument('config')\n    p.add_argument('--out')\n"
           "    p.add_argument('-n', '--count', type=int)\n"
           "    p.add_argument('--quiet', action='store_true')\n\n"
           "def other(p):\n    p.add_argument('--hidden')\n")
    others = ["main(['run', '--out', 'x'])", "argv = '--count 2'"]
    assert unexercised_flags(cli, others) == ["--count", "--quiet"]
    assert unexercised_flags(cli, others + ["flags = ['--count', '--quiet']"]) == []


def test_every_cli_flag_is_exercised():
    """A flag that no test and no benchmark passes is an output path no
    check reads."""
    others = [p.read_text() for p in sorted((ROOT / "tests").glob("*.py"))
              + sorted((ROOT / "perfbench").glob("*.py"))]
    assert unexercised_flags((SRC / "cli.py").read_text(), others) == []


def hand_reads(cli_source: str) -> list:
    """(section, key) of each ``get`` call that ``parse_config`` of
    ``cli_source`` makes outside its nested ``build``; "?" stands for an
    argument that is not a string literal."""
    parse = next(node for node in ast.parse(cli_source).body
                 if isinstance(node, ast.FunctionDef) and node.name == "parse_config")
    in_build = {id(n) for node in ast.walk(parse)
                if isinstance(node, ast.FunctionDef) and node.name == "build"
                for n in ast.walk(node)}
    return sorted(
        tuple(a.value if isinstance(a, ast.Constant) else "?" for a in call.args[:2])
        for call in ast.walk(parse)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
        and call.func.id == "get" and id(call) not in in_build)


def test_hand_read_detector():
    cli = ("def parse_config(path):\n"
           "    def get(section, key, default=None):\n        return default\n\n"
           "    def build(cls, section):\n"
           "        return cls(**{f: get(section, f) for f in fields(cls)})\n\n"
           "    mode = get('run', 'mode')\n    n = get('solver', name, 4)\n"
           "    ps = build(PhaseSpaceBasis, 'basis')\n    x = parser.get('a', 'b')\n\n"
           "def other():\n    get('output', 'directory')\n")
    assert hand_reads(cli) == [("run", "mode"), ("solver", "?")]


def test_parse_config_reads_keys_through_build():
    """Every config key but ``[run] mode`` and ``[model] potential`` is a
    field of its section's dataclass, which ``build`` reads and checks; a
    key read by hand is a second read path with checks of its own."""
    assert hand_reads((SRC / "cli.py").read_text()) == [
        ("model", "potential"), ("run", "mode")]
