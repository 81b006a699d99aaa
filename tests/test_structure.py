"""Module boundaries of the package itself."""

import ast
from pathlib import Path

import sta_otto

PACKAGE = Path(sta_otto.__file__).parent


def test_no_private_imports_between_modules():
    # a private name needed by a sibling module means a decision with two
    # owners: move it behind a public function of one module instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").startswith(
                "sta_otto")
            found += [f"{path.name}: from {node.module} import {a.name}"
                      for a in node.names
                      if internal and a.name.startswith("_")
                      and not a.name.endswith("__")]
    assert not found, found
