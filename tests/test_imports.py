"""Every name a package module imports is used in that module."""

import ast
from pathlib import Path

import aztec_triangles


def test_every_import_is_used():
    unused = []
    for path in sorted(Path(aztec_triangles.__file__).parent.glob("*.py")):
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
