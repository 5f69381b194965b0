"""The README's library examples run, and say what they compute.

Every fenced python block of README.md runs, in order, in one namespace.
A trailing comment on a statement is a claim about its value when its
text, up to the first double blank, is a Python expression that evaluates
in that namespace (with Scaled and Values added, whose reprs a comment may
show): for a bare expression the claim must evaluate and equal the
expression's value; for an assignment to a name it must equal the assigned
value when it evaluates (a comment such as "# the interval [0, 1]" is
prose).
"""

import ast
import io
import re
import tokenize
from pathlib import Path

from polarcut.rationals import Scaled, Values

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text: str) -> list:
    return re.findall(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)


def comments_by_line(source: str) -> dict:
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {
        tok.start[0]: tok.string[1:].strip().split("  ")[0]
        for tok in tokens
        if tok.type == tokenize.COMMENT
    }


def try_eval(text: str, namespace: dict):
    """(True, value) when text is an expression that evaluates, else (False, None)."""
    try:
        return True, eval(text, {"Scaled": Scaled, "Values": Values, **namespace})
    except (SyntaxError, NameError):
        return False, None


def run_claims(source: str, namespace: dict) -> list:
    """Run source statement by statement; returns the claims it checked."""
    comments = comments_by_line(source)
    checked = []
    for stmt in ast.parse(source).body:
        claim = comments.get(stmt.end_lineno)
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
            assert claim is not None, f"line {stmt.lineno}: no stated value"
            ok, expected = try_eval(claim, namespace)
            assert ok, f"line {stmt.lineno}: {claim!r} does not evaluate"
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
            if claim is None or not isinstance(stmt, ast.Assign):
                continue
            ok, expected = try_eval(claim, namespace)
            if not ok:
                continue
            value = namespace[stmt.targets[0].id]
        assert value == expected, f"line {stmt.lineno}: {value!r} != {claim}"
        checked.append(claim)
    return checked


def test_readme_python_blocks_state_their_values():
    namespace: dict = {}
    checked = []
    for block in python_blocks(README.read_text(encoding="utf-8")):
        checked += run_claims(block, namespace)
    assert checked == [
        "((0,0), (1,0), (0,1))",
        "Fraction(3, 1)",
        "Fraction(-1, 1)",
        "((Fraction(2, 1),), (Fraction(-2, 1),))",
        "(Fraction(2, 1), Fraction(2, 1))",
        "True",
        "'global'",
        "'region'",
        "Scaled(ints=(2, 1), den=4)",
        "Fraction(1, 2)",
        "(Fraction(1, 2), Fraction(1, 4))",
        "(([3, 2], [2, 1]), [1, 4])",
        "Values(nums=[3, 1], dens=[1, 2])",
        "[Fraction(3, 1), Fraction(1, 2)]",
        "(Fraction(4, 9), Fraction(4, 9))",
        "(None, None, (1, 4, 4))",
        "True",
        "True",
    ]

