"""Print each module's line count (``wc -l``) and code lines, then totals.

Code lines leave out blank lines, comment-only lines and the docstrings of
modules, classes and functions (found with ``ast``). The two totals are the
measures a change's net ``src/`` lines are given in.

Run:  python tools/src_lines.py [ROOT]     (ROOT defaults to ``src``)
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Lines holding a token other than layout and comments, outside docstrings."""
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(root: str = "src") -> None:
    total = code_total = 0
    for path in sorted(Path(root).rglob("*.py")):
        source = path.read_text()
        count, code = source.count("\n"), code_lines(source)
        total += count
        code_total += code
        print(f"{count:6d} {code:6d}  {path}")
    print(f"{total:6d} {code_total:6d}  total")


if __name__ == "__main__":
    main(*sys.argv[1:])
