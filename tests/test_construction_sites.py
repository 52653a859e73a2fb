"""One place builds a deployment.

``experiments/runner.py`` is the only module that generates a
transit-stub topology, picks a latency model, attaches the overlay,
places landmarks or constructs either routing stack; the one other
``HierasNetwork(`` is ``figures._rebinned``, which re-bins a bundle the
runner built.  A change to how deployments are built (sizing, landmark
count, hierarchy depth) is then a change to one function.  This scans
the package source, so a second copy of the pipeline fails here.
"""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).parent

#: Callee name → the ``(module path, enclosing function)`` sites allowed
#: to call it; ``None`` admits any function of that module.
ALLOWED = {
    name: {("experiments/runner.py", None)}
    for name in (
        "generate_transit_stub",
        "latency_model_for",
        "attach_overlay",
        "place_landmarks",
        "ChordNetwork",
    )
}
ALLOWED["HierasNetwork"] = {("experiments/runner.py", None), ("experiments/figures.py", "_rebinned")}


def _callee(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _call_sites(tree: ast.AST):
    """``(callee, enclosing top-level function or None, line)`` of every call."""

    def walk(node: ast.AST, function: str | None):
        for child in ast.iter_child_nodes(node):
            inner = function
            if function is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if isinstance(child, ast.Call):
                yield _callee(child), function, child.lineno
            yield from walk(child, inner)

    yield from walk(tree, None)


def _violations() -> list[str]:
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        for callee, function, line in _call_sites(ast.parse(path.read_text(), str(path))):
            sites = ALLOWED.get(callee)
            if sites is None or (module, None) in sites or (module, function) in sites:
                continue
            found.append(f"{module}:{line} calls {callee}( in {function or 'module scope'}")
    return found


def test_every_deployment_is_built_in_the_runner():
    assert _violations() == []


def test_the_scan_sees_the_allowed_sites():
    """The guard is not vacuous: it finds the sites it allows."""
    seen = set()
    for module in ("experiments/runner.py", "experiments/figures.py"):
        for callee, function, _ in _call_sites(ast.parse((PACKAGE / module).read_text())):
            if callee in ALLOWED:
                seen.add((callee, module, function))
    assert {callee for callee, _, _ in seen} == set(ALLOWED)
    assert ("HierasNetwork", "experiments/figures.py", "_rebinned") in seen
