"""Every name a package module imports is used in that module, and every
private name it defines is read somewhere in the repository."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "qcbnn").glob("*.py"))
READERS = sorted(path for folder in ("src", "tests", "demos", "benchmarks")
                 for path in (ROOT / folder).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that nothing in it reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_guard_reports_an_unused_import():
    source = "import io\nimport os\nfrom math import pi, tau\nprint(os.sep, tau)\n"
    assert unused_imports(source) == ["line 1: io", "line 3: pi"]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_definitions(source: str) -> list[str]:
    """Private module-level names and private methods a module defines."""
    defined = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [t.id for t in targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            defined += [item.name for item in node.body if isinstance(item, ast.FunctionDef)]
    return [name for name in defined if _private(name)]


def names_read(source: str) -> set[str]:
    """Names a source reads: loaded names and attributes, imported names,
    and strings (``getattr`` and ``monkeypatch.setattr`` name attributes)."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def test_every_private_name_is_read():
    read = set().union(*(names_read(path.read_text()) for path in READERS))
    dead = {path.name: [name for name in private_definitions(path.read_text())
                        if name not in read] for path in MODULES}
    assert {module: names for module, names in dead.items() if names} == {}


def test_guard_reports_a_dead_private_name():
    source = ("_LIMIT = 3\n_spare = 4\n\ndef _used():\n    return _LIMIT\n\n"
              "def _dead():\n    pass\n\nclass K:\n    def __init__(self):\n"
              "        self._used()\n\n    def _helper(self):\n        pass\n")
    assert private_definitions(source) == ["_LIMIT", "_spare", "_used", "_dead", "_helper"]
    read = names_read(source)
    assert [n for n in private_definitions(source) if n not in read] == \
        ["_spare", "_dead", "_helper"]


def write_opens(source: str) -> list[str]:
    """The functions holding an ``open`` call whose mode writes (contains
    ``w``, ``a``, ``x`` or ``+``, or is not a literal), one entry per call."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
            if not isinstance(mode, ast.Constant) or set("wax+") & set(mode.value):
                found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_every_write_goes_through_write_file():
    sites = {path.name: write_opens(path.read_text()) for path in MODULES}
    assert {module: names for module, names in sites.items() if names} == \
        {"files.py": ["write_file"]}


def test_guard_reports_a_write_open():
    source = ("def read(p):\n    return open(p).read(), open(p, 'rb'), open(p, mode='r')\n\n"
              "def save(p, mode):\n    open(p, 'w'), open(p, mode=mode)\n\n"
              "class K:\n    def log(self, p):\n        open(p, 'a+')\n\n"
              "open('x', 'xb')\n")
    assert write_opens(source) == ["save", "save", "log", "<module>"]
