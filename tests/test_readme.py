"""The README's quick session runs as written and gives the values its
comments state."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _claims(block: str) -> list[tuple[str, object, object]]:
    """Run block statement by statement; return (source, value, claimed) for
    every expression statement whose comment opens with a Python literal."""
    ns: dict = {}
    lines = block.splitlines()
    out = []
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module(body=[stmt], type_ignores=[]), str(README), "exec"), ns)
            continue
        value = eval(compile(ast.Expression(stmt.value), str(README), "eval"), ns)
        line = lines[stmt.end_lineno - 1]
        if "#" not in line:
            continue
        try:
            claimed = ast.literal_eval(line.rpartition("#")[2].split()[0])
        except (IndexError, ValueError, SyntaxError):
            continue
        out.append((ast.get_source_segment(block, stmt), value, claimed))
    return out


def test_readme_quick_session():
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    claims = _claims(block)
    assert [claimed for _, _, claimed in claims] == [16, 31, True]
    for source, value, claimed in claims:
        assert value == claimed and type(value) is type(claimed), source
