"""Print the size of a package two ways: its lines as ``wc -l`` counts them, and its
code lines outside docstrings, comments and blanks, as ``ast`` finds them.

A code line is a line that some parsed node spans, that is not blank, not a comment
alone and not part of a module, class or function docstring.

Run from the repository root::

    python tests/code_lines.py            # src/flowrecon
    python tests/code_lines.py some/dir   # any directory of .py files
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "flowrecon"
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    tree = ast.parse(source)
    spanned, docstrings = set(), set()
    for node in ast.walk(tree):
        if hasattr(node, "end_lineno"):
            spanned.update(range(node.lineno, node.end_lineno + 1))
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    text = source.splitlines()
    return sum(
        1 for line in spanned - docstrings
        if text[line - 1].strip() and not text[line - 1].lstrip().startswith("#")
    )


def main(directory: Path) -> None:
    total_lines = total_code = 0
    for path in sorted(directory.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines, code = source.count("\n"), code_lines(source)
        total_lines, total_code = total_lines + lines, total_code + code
        print(f"{path.name:20} {lines:6} lines {code:6} code")
    print(f"{'total':20} {total_lines:6} lines {total_code:6} code")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else PACKAGE)
