"""Print the code lines of each `src/sharedsched` module, and their total.

A code line is a line that is not blank, not a comment alone, and not part
of a module, class or function docstring, so a change's net reads as code
added or removed, whatever it does to its documentation.  Standard library
only; it takes no arguments and writes no file:

    python tools/code_lines.py
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sharedsched"
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    text = path.read_text(encoding="utf-8")
    docstrings = _docstring_lines(ast.parse(text))
    count = 0
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#") and number not in docstrings:
            count += 1
    return count


def main() -> None:
    total = 0
    for path in sorted(SRC.glob("*.py")):
        lines = code_lines(path)
        total += lines
        print(f"{lines:6d} {path.name}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main()
