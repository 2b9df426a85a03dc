"""Count the code lines of Python sources: every line except blank lines,
comment-only lines and the lines of module, class and function docstrings.

    python tools/code_lines.py src/ppinterp

prints the total for each file or directory given (directories are searched
for ``*.py`` files recursively)."""

import ast
import sys
from pathlib import Path

DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstring.update(range(first.lineno, first.end_lineno + 1))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), 1)
        if line.strip() and not line.lstrip().startswith("#") and number not in docstring
    )


def main(args):
    for arg in args:
        path = Path(arg)
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        print(sum(code_lines(f.read_text()) for f in files), arg)


if __name__ == "__main__":
    main(sys.argv[1:])
