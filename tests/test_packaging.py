import ast
import importlib
import re
import sys
import tomllib
from pathlib import Path

import pytest

from flowrecon.haar import max_levels
from flowrecon.ingest import MAX_AGGREGATION_LEVEL, SLOTS_PER_DAY

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
PACKAGE = ROOT / "src" / "flowrecon"
TESTS = ROOT / "tests"


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


@pytest.mark.parametrize(
    "module", sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")), ids=lambda path: path.name
)
def test_module_uses_every_import(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def test_unused_import_check_finds_a_leftover():
    source = "from __future__ import annotations\nimport os\nimport numpy as np\n" \
        "from .errors import A, B\n\ndef f(x: np.ndarray) -> A:\n    return x\n"
    assert unused_imports(source) == ["os (line 2)", "B (line 4)"]


def absolute_imports(source: str) -> set[str]:
    """Top-level package names of a module's absolute imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_package_needs_only_numpy_and_the_standard_library():
    imports = set()
    for module in PACKAGE.glob("*.py"):
        imports |= absolute_imports(module.read_text(encoding="utf-8"))
    assert imports - sys.stdlib_module_names == {"numpy"}
    dependencies = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["dependencies"]
    assert [re.match(r"[\w.-]+", dep).group() for dep in dependencies] == ["numpy"]


def imports_haar(source: str) -> bool:
    """Whether a module imports ``haar``, by any relative or absolute spelling."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return any("haar" in name.split(".") for name in names)


def test_no_pipeline_module_imports_the_haar_oracle():
    """The oracle checks the pipeline and lends it nothing, its level ladder included."""
    importers = [
        path.name for path in PACKAGE.glob("*.py")
        if path.name != "haar.py" and imports_haar(path.read_text(encoding="utf-8"))
    ]
    assert importers == []
    assert MAX_AGGREGATION_LEVEL == max_levels(SLOTS_PER_DAY)


@pytest.mark.parametrize(
    "source",
    ("from .haar import max_levels", "from . import haar", "import flowrecon.haar",
     "from flowrecon import haar", "from flowrecon.haar import SQRT2"),
)
def test_haar_import_check_finds_each_spelling(source):
    assert imports_haar(source) and not imports_haar(source.replace("haar", "ingest"))


def private_imports(source: str) -> set[tuple[str, str]]:
    """(module, name) of each private name a module imports from a flowrecon
    module, by a relative or an absolute ``from`` import."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module.split(".")[0] == "flowrecon":
                module = module.removeprefix("flowrecon").lstrip(".")
                found.update((module, alias.name) for alias in node.names if alias.name[0] == "_")
    return found


def test_only_ingest_lends_private_names():
    """The window table and the derived-signal constructor are ingest's; no other
    private name crosses from one package module into another."""
    lent = {
        (path.stem, module, name)
        for path in PACKAGE.glob("*.py")
        for module, name in private_imports(path.read_text(encoding="utf-8"))
    }
    assert lent == {
        ("matrix", "ingest", "_WINDOW_OF"),
        ("reconstruct", "ingest", "_WINDOW_OF"),
        ("reconstruct", "ingest", "_derived"),
    }


@pytest.mark.parametrize(
    "source, found",
    (
        ("from .ingest import _WINDOW_OF", {("ingest", "_WINDOW_OF")}),
        ("from flowrecon.ingest import A, _x as y", {("ingest", "_x")}),
        ("from . import _x", {("", "_x")}),
        ("from .ingest import SLOTS_PER_DAY", set()),
        ("from numpy import _x\nfrom __future__ import annotations", set()),
    ),
)
def test_private_import_check_finds_each_spelling(source, found):
    assert private_imports(source) == found


def documented_api() -> dict[str, set[str]]:
    """Module name -> the double-backticked names under its ``flowrecon.<module>``
    heading in the package docstring."""
    docstring = ast.get_docstring(ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")))
    sections: dict[str, set[str]] = {}
    names = None
    for line in docstring.splitlines():
        heading = re.fullmatch(r"``flowrecon\.(\w+)``", line)
        if heading:
            names = sections.setdefault(heading.group(1), set())
        elif names is not None:
            names.update(re.findall(r"``(\w+)``", line))
    return sections


def top_level_names(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(every top-level name a module binds, its public def/class names less
    the ``FlowReconError`` subclasses)."""
    bound, public = set(), set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
            is_error = isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id == "FlowReconError" for base in node.bases
            )
            if not node.name.startswith("_") and not is_error:
                public.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(t.id for t in targets if isinstance(t, ast.Name))
    return bound, public


def test_package_docstring_lists_the_public_api():
    """Each module's section of the package docstring names only what the
    module defines, and every public def and class it defines."""
    documented = documented_api()
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert set(documented) == modules
    for module, listed in documented.items():
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        bound, public = top_level_names(tree)
        assert listed - bound == set(), f"flowrecon.{module} lacks documented names"
        assert public - listed == set(), f"flowrecon.{module} has undocumented names"


def test_top_level_names_exempt_only_error_subclasses():
    tree = ast.parse("X = 1\nclass E(FlowReconError): pass\nclass A: pass\n"
                     "def _f(): pass\ndef g(): pass\n")
    assert top_level_names(tree) == ({"X", "E", "A", "_f", "g"}, {"A", "g"})
