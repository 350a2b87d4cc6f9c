"""Every name a package module imports is used in that module, and every
private top-level name is used somewhere in the package."""

import ast
from pathlib import Path

import aztec_triangles

MODULES = sorted(Path(aztec_triangles.__file__).parent.glob("*.py"))


def test_every_import_is_used():
    unused = []
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            # A line marked "# noqa: F401" is a re-export: ``paths`` binds
            # ``lgv_matrix`` for the benchmark's tracer, which looks that
            # layer up under ``paths``.
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in loaded:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, f"imported and never used: {unused}"


def test_every_private_name_is_used():
    defined = []
    loaded = set()
    for path in MODULES:
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            # dunders such as __version__ and __getattr__ are protocol, not private
            defined += [(path.name, node.lineno, name) for name in names
                        if name.startswith("_") and not name.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    unused = [f"{file}:{line} {name}" for file, line, name in defined
              if name not in loaded]
    assert not unused, f"private and never used: {unused}"
