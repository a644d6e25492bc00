"""Every module of src/ and tools/ uses each name it imports, imports nothing
outside the standard library, numpy, PyYAML and the package itself, each
function or lambda there reads each of its parameters, and each module-level
private name that one of them binds is read by one of them."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for d in ("src", "tools") for p in (ROOT / d).rglob("*.py"))
# the package's dependencies (pyproject.toml) and the package itself
ALLOWED_IMPORTS = frozenset(sys.stdlib_module_names) | {"numpy", "yaml", "panelmetrics"}


def unused_imports(source: str) -> list:
    """Names bound by the module's imports that no Name node reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def foreign_imports(source: str) -> list:
    """Top-level package of each absolute import, at any depth of the module, that
    ALLOWED_IMPORTS does not hold, in import order."""
    foreign = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        tops = [n.partition(".")[0] for n in names]
        foreign += [top for top in tops if top not in ALLOWED_IMPORTS]
    return foreign


def unread_parameters(source: str) -> list:
    """(function, parameter) for each parameter, self and cls aside, that the body of its
    function or lambda never reads, nested functions included; `x += 1` reads x."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            read = set()
            for part in node.body if isinstance(node.body, list) else [node.body]:
                for n in ast.walk(part):
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                        read.add(n.id)
                    elif isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name):
                        read.add(n.target.id)
            unread += [(getattr(node, "name", "lambda"), p.arg) for p in params
                       if p is not None and p.arg not in read | {"self", "cls"}]
    return unread


def private_definitions(tree) -> list:
    """Names starting with one underscore that the module's top level binds."""
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in bound if name.startswith("_") and not name.startswith("__")]


def unread_private_names(sources: dict) -> list:
    """(module, name) for each private top-level name no source reads: as a loaded
    Name, an attribute (`mod._name`) or an imported name (`from .mod import _name`)."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return [(module, name) for module, tree in trees.items()
            for name in private_definitions(tree) if name not in read]


def test_modules_found():
    assert len(MODULES) > 10


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_sees_each_binding_form():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "import numpy as np\n"
        "from a import b, c as d\n"
        "def f(x: d) -> None:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["np", "b"]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_imports_only_stdlib_and_dependencies(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def test_dependency_check_sees_each_import_form():
    source = (
        "from __future__ import annotations\n"
        "import os.path, requests\n"
        "import numpy as np, urllib3.util as u\n"
        "from yaml import safe_load\n"
        "from charset_normalizer.api import from_bytes\n"
        "from . import sibling\n"
        "from .pkg import name\n"
        "def f():\n"
        "    import certifi\n"
        "    from panelmetrics.data import PanelDataset\n"
    )
    assert foreign_imports(source) == ["requests", "urllib3", "charset_normalizer", "certifi"]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []


def test_parameter_check_sees_each_parameter_form():
    source = (
        "def f(a, b, /, c, d=1, *args, e, g=2, **kwargs):\n"
        "    return a + c + e\n"
        "class K:\n"
        "    def m(self, x, y):\n"
        "        x += 1\n"
        "        return x\n"
        "    @classmethod\n"
        "    def n(cls, *rest, **extra):\n"
        "        def inner(z):\n"
        "            return rest, z\n"
        "        return inner\n"
        "h = lambda u, v: u\n"
    )
    assert unread_parameters(source) == [
        ("f", "b"), ("f", "d"), ("f", "g"), ("f", "args"), ("f", "kwargs"),
        ("m", "y"), ("n", "extra"), ("lambda", "v"),
    ]


def test_every_private_name_is_read():
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in MODULES}
    assert unread_private_names(sources) == []


def test_private_check_sees_each_binding_and_read_form():
    sources = {
        "a.py": (
            "import b\n"
            "_LOCAL = 1\n"
            "_UNREAD, (_PAIR, x) = 2, (3, 4)\n"
            "_ANNOTATED: int = 5\n"
            "__dunder__ = 6\n"
            "def _helper():\n"
            "    _inner = _LOCAL + _PAIR\n"
            "    return b._by_attribute\n"
            "class _Unused:\n"
            "    _field = 7\n"
        ),
        "b.py": (
            "from a import _helper\n"
            "_by_attribute = 8\n"
            "def _never_called():\n"
            "    pass\n"
        ),
    }
    assert unread_private_names(sources) == [
        ("a.py", "_UNREAD"), ("a.py", "_ANNOTATED"), ("a.py", "_Unused"), ("b.py", "_never_called"),
    ]
