"""The package is layered: each module imports only modules below it, so
no import, not even one inside a function body, closes a cycle. Beyond
itself it imports only the standard library and its runtime dependencies."""
import ast
import sys
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


# pyproject.toml's runtime dependencies, by the names they are imported under
RUNTIME_DEPENDENCIES = {"numpy", "yaml"}


def test_the_package_imports_only_the_standard_library_and_its_dependencies():
    # every import, function-local ones included, so an optional package such
    # as scipy cannot slip in on a path that no run happens to take
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.stem} imports {name} (line {node.lineno})" for name in names
                        if name.split(".")[0] not in
                        sys.stdlib_module_names | RUNTIME_DEPENDENCIES | {"escontrol"}]
    assert foreign == []
