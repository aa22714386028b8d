import ast
import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
PACKAGE = ROOT / "src" / "flowrecon"


def test_console_scripts_import():
    """Every [project.scripts] target names an importable callable."""
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def unused_imports(source: str) -> list[str]:
    """Names a module imports (``from __future__`` aside) and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_module_uses_every_import(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def test_unused_import_check_finds_a_leftover():
    source = "from __future__ import annotations\nimport os\nimport numpy as np\n" \
        "from .errors import A, B\n\ndef f(x: np.ndarray) -> A:\n    return x\n"
    assert unused_imports(source) == ["os (line 2)", "B (line 4)"]
