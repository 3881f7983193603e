"""Count the lines of Python sources as code, docstring, comment and blank.

Usage:

    python tools/loc.py [PATH ...]

Each PATH (default ``src``) is a ``.py`` file or a directory searched for
them.  A line is blank when it holds only whitespace, inside a docstring
too; else a docstring line when it lies in the span of a module, class or
function docstring (``ast``); else a comment line when its only tokens are
a comment (``tokenize``); else code.  A line that holds code and a trailing
comment is code, and so is every line of a string that is not a docstring.
Prints one JSON object: the four counts, their total and the number of files.
"""

from __future__ import annotations

import ast
import io
import json
import sys
import tokenize
from pathlib import Path

# tokens that are not code: a line whose tokens are all among these holds none
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count(source: str) -> dict[str, int]:
    """The code, docstring, comment and blank lines of one module's ``source``."""
    lines = source.splitlines()
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code: set[int] = set()
    comments: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            comments.add(token.start[0])
        elif token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    counts = {"code": 0, "docstring": 0, "comment": 0, "blank": 0}
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            counts["blank"] += 1
        elif number in docstrings:
            counts["docstring"] += 1
        elif number in comments and number not in code:
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main(argv: list[str]) -> int:
    paths = [Path(p) for p in argv or ["src"]]
    files = sorted(f for p in paths for f in ([p] if p.is_file() else p.rglob("*.py")))
    totals = {"code": 0, "docstring": 0, "comment": 0, "blank": 0}
    for path in files:
        for kind, n in count(path.read_text(encoding="utf-8")).items():
            totals[kind] += n
    print(json.dumps({**totals, "total": sum(totals.values()), "files": len(files)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
