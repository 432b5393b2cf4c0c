"""The README's Quick start block runs and prints what its comments say."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_quick_start_gives_the_commented_values():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Quick start\n\n```python\n(.*?)```", text, re.S).group(1)
    lines = block.splitlines()
    namespace = {}
    checked = []
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            expected = ast.literal_eval(lines[node.lineno - 1].partition("#")[2].strip())
            assert value == expected, source
            checked.append(expected)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert checked == [2, 2, 3, "pass"]


def test_layout_lists_every_package_module():
    block = re.search(r"## Layout\n\n```\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    listed = set(re.findall(r"^  (\S+\.py) ", block.group(1), re.M))
    assert listed == {path.name for path in (ROOT / "src" / "folgerm").glob("*.py")}
