"""The package is layered: each module imports only modules below it, so
no import, not even one inside a function body, closes a cycle."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "escontrol"

# lowest first; __init__ re-exports the public names of every layer
ORDER = ("errors", "ode", "basis", "scenario", "es", "feedback", "lqr", "harness", "cli",
         "__init__")


def _package_imports(path: Path):
    """(module imported, line) of every relative import in the file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module is None:  # from . import es
                for alias in node.names:
                    yield alias.name, node.lineno
            else:
                yield node.module.split(".")[0], node.lineno


def test_each_module_imports_only_modules_below_it():
    upward = []
    for path in sorted(PACKAGE.glob("*.py")):
        rank = ORDER.index(path.stem)
        for module, line in _package_imports(path):
            if ORDER.index(module) >= rank:
                upward.append(f"{path.stem} imports {module} (line {line})")
    assert upward == []
