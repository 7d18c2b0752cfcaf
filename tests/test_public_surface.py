"""The package's public functions are there for the package to use."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mfxdma"


def _unreferenced_public_functions():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    public = {(module, node.name) for module, tree in trees.items()
              for node in tree.body
              if isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_")}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return {f"{module}.{name}" for module, name in public if name not in used}


def test_no_public_function_exists_only_for_tests():
    # analytic_cascade_tau: the cascade's closed-form tau, the documented
    # oracle for the scaling chain.
    assert _unreferenced_public_functions() == {"synth.analytic_cascade_tau"}
