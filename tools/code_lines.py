"""Code lines per Python module: blank lines, comments and docstrings left out.

Usage: python3 tools/code_lines.py src/kgembed/*.py

Prints the total over the files, then one ``- name: count`` line per file, as
Markdown. A line counts if it holds part of any token other than a comment,
unless it lies in a module, class or function docstring, so rewording or
deleting prose leaves the count unchanged.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

_NOT_CODE = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER)


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main(paths: list[str]) -> None:
    counts = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            counts[os.path.basename(path)] = code_lines(fh.read())
    print(f"Code lines (no blank, comment or docstring lines): {sum(counts.values())}")
    for name, n in counts.items():
        print(f"- {name}: {n}")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.stderr.write("usage: python3 tools/code_lines.py FILE.py [FILE.py ...]\n")
        sys.exit(2)
    main(sys.argv[1:])
