"""Source layout rules that keep each module's private tables behind that module."""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "kgembed")


def test_no_private_name_imported_from_a_sibling_module():
    found = []
    for fname in sorted(os.listdir(SRC)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(SRC, fname), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=fname)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [
                    f"{fname}:{node.lineno} imports {alias.name} from .{node.module or ''}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert not found, found
