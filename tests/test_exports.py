"""The package's public surface: every exported name resolves, once, every
module uses what it imports, and every module-level definition is used."""

import ast
from pathlib import Path

import qmedian

PACKAGE_DIR = Path(qmedian.__file__).resolve().parent


def test_all_names_resolve_without_duplicates():
    missing = [name for name in qmedian.__all__ if not hasattr(qmedian, name)]
    assert missing == []
    assert len(qmedian.__all__) == len(set(qmedian.__all__))


def _unused_imports(path: Path):
    """Names a module imports but neither reads nor lists in ``__all__``;
    an import on a line marked ``# noqa: F401`` is kept on purpose."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                lineno = getattr(alias, "lineno", node.lineno)
                if "# noqa: F401" not in lines[lineno - 1]:
                    imported[name] = lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_every_import_is_used():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(modules) > 1
    unused = {p.name: _unused_imports(p) for p in modules}
    assert {name: found for name, found in unused.items() if found} == {}


def _definitions(tree: ast.Module):
    """Module-level functions, classes and constants, dunders aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and not t.id.startswith("__"):
                    yield t.id


def _reads(tree: ast.Module):
    """Names a module reads or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_definition_is_used():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE_DIR.glob("*.py"))}
    read = set(qmedian.__all__)
    for tree in trees.values():
        read.update(_reads(tree))
    unused = {name: sorted(set(_definitions(tree)) - read) for name, tree in trees.items()}
    assert {name: found for name, found in unused.items() if found} == {}


def test_every_public_name_has_a_package_reader():
    # a name in __all__ that only the tests read is surface to delete
    read = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name != "__init__.py":
            read.update(_reads(ast.parse(path.read_text())))
    assert sorted(set(qmedian.__all__) - read - {"__version__"}) == []
