"""The package's public surface: every exported name resolves, once, and
every module uses what it imports."""

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
