"""Static checks over the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "smfdfa"


def unused_imports(path: Path) -> list[str]:
    """`file:line: name` for each name a module imports but never reads.

    `from __future__` imports are exempt; every other imported name must
    appear as a name somewhere in the module (annotations included).
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # __init__.py imports to re-export, so its names are read by callers
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 8
    assert [hit for path in modules for hit in unused_imports(path)] == []


def test_all_lists_exactly_the_imported_names():
    # a name deleted from a module must leave both the import and __all__
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    exported = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__all__"]
    )
    assert len(exported) == len(set(exported))
    assert set(exported) == imported | {"__version__"}
