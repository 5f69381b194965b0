"""No library call to json.dump, json.dumps or json.JSONEncoder passes indent.

Given indent, json encodes in pure Python (json.encoder._make_iterencode)
instead of its C encoder, several times slower on a report that holds
thousands of values. cli._render writes the indented text itself and
hands json's encoder only containers of scalars and scalars, and
rationals._ENCODE writes a block of query points as one compact text. This
collects with ast every json.dump/json.dumps/json.JSONEncoder call in
src/polarcut and lists the keywords it passes; a **mapping, which could
carry indent, is refused too.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "polarcut"


def json_dump_calls(source: str) -> list:
    """(line, keyword names) for each json.dump, json.dumps or
    json.JSONEncoder call."""
    calls = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "json"
            and node.func.attr in ("dump", "dumps", "JSONEncoder")
        ):
            calls.append((node.lineno, [k.arg for k in node.keywords]))
    return calls


def test_library_json_calls_pass_no_indent():
    calls = {}
    for path in sorted(SRC.glob("*.py")):
        for line, keywords in json_dump_calls(path.read_text(encoding="utf-8")):
            calls[f"{path.name}:{line}"] = keywords
    assert sum(k.startswith("cli.py:") for k in calls) >= 3
    assert any(k.startswith("rationals.py:") for k in calls)
    assert {where: kw for where, kw in calls.items() if "indent" in kw or None in kw} == {}


def test_call_collector_sees_indent():
    source = (
        "import json\n"
        "json.dumps(x)\n"
        "json.dump(x, fh, indent=2)\n"
        "json.dumps(x, **options)\n"
        "json.JSONEncoder(indent=2).encode(x)\n"
        "print(x, indent=2)\n"
    )
    assert json_dump_calls(source) == [(2, []), (3, ["indent"]), (4, [None]), (5, ["indent"])]
