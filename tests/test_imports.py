"""Every name a module imports is used in it, every name the library
defines is used somewhere, and the CLI starts light.

No linter ships with the project, and deleting a function tends to leave
its imports behind. This walks the syntax tree of each library module
(except the package __init__, which imports names to re-export them) and
each test module, and lists the imported names that no expression reads.
Folding two helpers into one tends to leave the other behind: every
module-level function, class and constant of the library must be read by
an expression of the library outside its own definition, or, when it is
public, be re-exported by the package __init__. What only the tests read
is dead: a helper that a fold leaves behind as a test seam, or a public
function kept as a test-only wrapper.

Every CLI call pays for `import polarcut.cli` before it does any work.
The records are named tuples, so that import loads neither dataclasses
nor what it pulls in (inspect, ast, dis, tokenize), and generates no
code per class: no library module imports dataclasses, and a fresh
interpreter that imports polarcut.cli has neither module.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = sorted(
    p
    for p in [*(SRC / "polarcut").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py"
)


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_detector():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from math import gcd, lcm\n"
        "def f(x: gcd) -> int:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == [(3, "j"), (4, "lcm")]


def definitions(tree) -> list:
    """(name, node) for each module-level function, class and constant."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node))
        elif isinstance(node, ast.Assign):
            out += [(t.id, node) for t in node.targets if isinstance(t, ast.Name)]
    return out


def read_names(nodes) -> set:
    """The names and attribute names that expressions under nodes read."""
    names = set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                names.add(n.attr)
    return names


def dead_definitions(sources: dict, exported: set) -> list:
    """(module, name) for each definition in sources (module name to
    source text) that no expression of sources outside it reads, unless
    the name is public and exported."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    dead = []
    for module, tree in trees.items():
        elsewhere = read_names(t for m, t in trees.items() if m != module)
        for name, node in definitions(tree):
            read = elsewhere | read_names(n for n in tree.body if n is not node)
            if name not in (read if name.startswith("_") else read | exported):
                dead.append((module, name))
    return dead


def test_no_dead_definitions():
    init = ast.parse((SRC / "polarcut" / "__init__.py").read_text(encoding="utf-8"))
    exported = {
        alias.asname or alias.name
        for node in ast.walk(init)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    library = {
        p.name: p.read_text(encoding="utf-8") for p in MODULES if p.parent.name == "polarcut"
    }
    assert len(library) == 7
    assert dead_definitions(library, exported) == []


def test_dead_definition_detector():
    sources = {
        "a": "X = 1\nY = X\ndef f():\n    return f()\nclass C:\n    pass\n",
        "b": "import a\nZ = a.C\n",
    }
    assert dead_definitions(sources, set()) == [("a", "Y"), ("a", "f"), ("b", "Z")]
    assert dead_definitions(sources, {"f", "Z"}) == [("a", "Y")]
    private = {"a": "def _g():\n    pass\ndef _h():\n    pass\n", "b": "import a\nZ = a._h\n"}
    assert dead_definitions(private, {"_g", "Z"}) == [("a", "_g")]
    # A public wrapper that only the tests read is dead: no reader outside
    # the library counts, so only an export keeps it.
    wrapper = {"a": "def _build():\n    pass\ndef build():\n    return _build()\n"}
    assert dead_definitions(wrapper, set()) == [("a", "build")]
    assert dead_definitions(wrapper, {"build"}) == []


def imported_modules(source: str) -> set:
    """The top-level names of the modules that source imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_library_does_not_import_dataclasses():
    importers = [
        path.name
        for path in sorted((SRC / "polarcut").glob("*.py"))
        if "dataclasses" in imported_modules(path.read_text(encoding="utf-8"))
    ]
    assert importers == []


def test_import_collector_sees_dataclasses():
    source = (
        "import os.path, json\n"
        "from dataclasses import field\n"
        "from . import lp\n"
        "def f():\n"
        "    import inspect\n"
    )
    assert imported_modules(source) == {"os", "json", "dataclasses", "inspect"}


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    probe = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import polarcut.cli\n"
        "assert polarcut.cli.__file__.startswith(sys.path[0]), polarcut.cli.__file__\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]"]
