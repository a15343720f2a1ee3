#!/usr/bin/env python3
"""Count the lines of the vlogic sources by one fixed rule.

Usage: python scripts/count_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/vlogic of this checkout; every *.py file under
it is counted. Prints one JSON object {"raw": ..., "code": ..., "docstring": ...}:

- raw: every line of every file;
- docstring: every line spanned by a docstring, the string literal that
  opens the body of a module, class or function (`ast`);
- code: every other line that holds a token of the program: anything but
  a comment, an indent or a line break (`tokenize`). A token spanning
  several lines counts on each of them.

The rest of raw is comments and blank lines. Standard library only.
"""

import ast
import json
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def count(path: Path) -> dict[str, int]:
    source = path.read_text()
    docstring = _docstring_lines(ast.parse(source))
    code = set()
    with path.open("rb") as f:
        for token in tokenize.tokenize(f.readline):
            if token.type not in _NOT_CODE:
                code.update(range(token.start[0], token.end[0] + 1))
    return {"raw": len(source.splitlines()), "code": len(code - docstring), "docstring": len(docstring)}


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "vlogic"
    files = sorted(root.rglob("*.py"))
    if not files:
        print(f"count_lines.py: no *.py files under {root}", file=sys.stderr)
        return 1
    totals = {"raw": 0, "code": 0, "docstring": 0}
    for path in files:
        for key, n in count(path).items():
            totals[key] += n
    print(json.dumps(totals))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
