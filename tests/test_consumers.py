"""Every public construction of the package has a consumer.

A module-level public function or class must be referenced somewhere in
`src/logbesov` outside its own definition (the `__init__` re-exports do not
count) or in the acceptance gate.  A name that only its own unit tests call
serves no CLI verb, runner or acceptance criterion: wire it into one, delete
it, or list it below with the reason it stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "logbesov"
GATE = ROOT / "tests" / "test_acceptance.py"

ALLOWED = {
    "cube_mean_power": "the single-cube oracle the criterion and cube tests check the tables against",
    "save_sfn": "writes the .sfn files that load_sfn reads for `norm --input`",
    "load_dpu": "reads back the .dpu files that `partition-check --export` writes",
    "default_stack_spacing": "the stride whose geometric dominance the stack tests check",
    "project": "S_k f one level at a time: the oracle the partition and criterion-oracle tests check decompose against",
    "partial_sum": "S^k f as one multiplier: the oracle the telescoping and paraproduct tests check the pieces against",
}


def _referenced(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names loaded or accessed as attributes in `tree`, the subtree `skip` excluded."""
    names: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _unconsumed() -> list[str]:
    trees = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    outside = {path: _referenced(tree) for path, tree in trees.items() if path.name != "__init__.py"}
    gate = _referenced(ast.parse(GATE.read_text()))
    missing = []
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        elsewhere = gate.union(*(refs for p, refs in outside.items() if p != path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name not in elsewhere and node.name not in _referenced(tree, skip=node):
                missing.append(f"{path.stem}.{node.name}")
    return missing


def test_every_public_construction_has_a_consumer():
    unconsumed = [name for name in _unconsumed() if name.split(".")[1] not in ALLOWED]
    assert unconsumed == [], f"no consumer outside the unit tests: {unconsumed}"


def test_allowlist_entries_exist_and_lack_consumers():
    """Each allowlisted name is still defined and still has no consumer, so
    the list cannot outlive the reason for an entry."""
    assert sorted(name.split(".")[1] for name in _unconsumed()) == sorted(ALLOWED)
