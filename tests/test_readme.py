"""The README's ``Library`` block runs as written and shows the values it
returns."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> list[str]:
    text = README.read_text()
    section = text[text.index("## Library"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1).splitlines()


def shown_value(comment: str):
    """The Python expression a comment starts with: the shortest prefix
    ending before a ``,``, ``:`` or ``;``, or the whole comment, that parses
    as one; None if there is none."""
    cuts = [m.start() for m in re.finditer(r"[,:;]", comment)] + [len(comment)]
    for cut in cuts:
        try:
            return ast.parse(comment[:cut], mode="eval")
        except SyntaxError:
            pass
    return None


def test_library_block_shows_its_values():
    # each shown value is the repr of the line's value, spacing aside
    namespace, checked = {}, 0
    for line in library_block():
        code, _, comment = line.partition(" # ")
        shown = shown_value(comment.strip())
        if shown is None:
            exec(code, namespace)
            continue
        assert repr(eval(code, namespace)) == ast.unparse(shown), line
        checked += 1
    assert checked == 7
