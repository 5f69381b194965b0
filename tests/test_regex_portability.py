"""Every regular expression of the library compiles on Python 3.10.

pyproject.toml supports Python 3.10, whose re has neither possessive
quantifiers ("a++") nor atomic groups ("(?>a)"): there they raise
re.error, which is not a ValueError, so no input error would catch it.
This collects each pattern the library hands to a re function (a text,
or a module-level name such as rationals._TYPED_TEXT, read
from the imported module), parses it, and lists those two opcodes
wherever they occur in the parse tree.
"""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

try:
    from re import _parser
except ImportError:  # Python 3.10
    import sre_parse as _parser

SRC = Path(__file__).resolve().parent.parent / "src" / "polarcut"
NOT_ON_310 = {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}


def library_patterns() -> dict:
    """{"module: source": pattern text} for the first argument of every
    re.<function>(...) call in the library."""
    patterns = {}
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(
            "polarcut" if path.stem == "__init__" else f"polarcut.{path.stem}"
        )
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "re"
                and node.args
            ):
                continue
            arg = node.args[0]
            if isinstance(arg, ast.Constant):
                pattern = arg.value
            elif isinstance(arg, ast.Name):
                pattern = getattr(module, arg.id)
            else:
                pytest.fail(f"{path.name}:{node.lineno}: pattern is not a text or a module name")
            patterns[f"{path.stem}: {ast.unparse(arg)}"] = pattern
    return patterns


def opcodes(node) -> set:
    """The opcode names of a parsed pattern, its subpatterns included."""
    found = set()
    if isinstance(node, _parser.SubPattern):
        for op, av in node.data:
            found |= {str(op)} | opcodes(av)
    elif isinstance(node, (list, tuple)):
        for item in node:
            found |= opcodes(item)
    return found


def test_library_regexes_parse_without_newer_opcodes():
    patterns = library_patterns()
    assert {where for where in patterns if where.startswith("rationals: ")} == {
        "rationals: _SCALAR",
        "rationals: _TYPED_TEXT",
        "rationals: _TWO_SLASHES",
    }
    for where, pattern in patterns.items():
        assert opcodes(_parser.parse(pattern)) & NOT_ON_310 == set(), where


@pytest.mark.skipif(sys.version_info < (3, 11), reason="3.10's re refuses these patterns")
def test_opcode_walker_finds_newer_opcodes():
    assert opcodes(_parser.parse(r"(?m)^(?![0-9]++$)")) & NOT_ON_310 == {"POSSESSIVE_REPEAT"}
    assert opcodes(_parser.parse(r"x|(a(?>b))")) & NOT_ON_310 == {"ATOMIC_GROUP"}
    assert opcodes(_parser.parse(r"[0-9]+(?:/[1-9])?")) & NOT_ON_310 == set()
    with pytest.raises(re.error):
        _parser.parse("a+++")
