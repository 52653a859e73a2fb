"""Source contracts that no byte comparison sees until a number moves.

A run is a pure function of its seed (DESIGN.md §8).  The pinned
tier-1 digests and the seven ``bench <id> --check`` runs fail once a
violation changes an artifact; each scan here fails on a violation that
changes none *yet* — planting it in a covered module left every other
check passing (the mutation table in DESIGN.md §8).  A scan is a plain
``ast`` walk over ``src``, ``tests``, ``benchmarks`` and ``examples``;
the last three are test-grade code with a looser scope.  A site a scan
must tolerate is listed in ``ALLOWED`` with its reason, and
``test_every_allowed_site_is_found`` drops entries that go stale.  Each
scan's positive and negative fixtures sit in ``tests/test_lint.py``
(DET001, DET002) and ``tests/test_lint_rules.py`` (the rest), under the
names they had as tests of the analyzer these scans replace.
"""

import ast
import re
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "benchmarks", "examples")


def _module(path: Path) -> str:
    """``src/repro/dht/chord.py`` → ``repro.dht.chord``, ``tests/test_x.py`` → ``tests.test_x``."""
    parts = path.relative_to(ROOT).with_suffix("").parts
    parts = parts[1:] if parts[0] == "src" else parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _under(module: str, *packages: str) -> bool:
    return any(module == p or module.startswith(p + ".") for p in packages)


def _test_grade(module: str) -> bool:
    return _under(module, "tests", "benchmarks", "examples")


def _dotted(node: ast.AST) -> str | None:
    """``np.random.seed`` for that attribute chain; ``None`` for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def _nodes(tree: ast.AST):
    """``(node, innermost enclosing function name or None)`` for every node."""

    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            yield child, function
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            yield from walk(child, inner)

    yield from walk(tree, None)


# -- DET001: randomness flows through repro.util.rng ---------------------


def _det001(tree, module):
    """No stdlib ``random`` and no global ``np.random`` state anywhere; in
    library code no direct ``np.random`` call at all (``make_rng`` /
    ``spawn_rngs``).  Test-grade code may build *seeded* generators."""
    library = not _test_grade(module)
    for node, function in _nodes(tree):
        if isinstance(node, ast.Import):
            bad = any(alias.name.split(".")[0] == "random" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            bad = node.module == "random"
        elif isinstance(node, ast.Call):
            name = _dotted(node.func) or ""
            leaf = name.split("random.", 1)[-1]
            unseeded = leaf == "default_rng" and not node.args and not node.keywords
            bad = name.startswith(("np.random.", "numpy.random.")) and (library or leaf == "seed" or unseeded)
        else:
            continue
        if bad:
            yield node, function


# -- DET002: no wall clock in the deterministic stacks --------------------

_WALLCLOCK = frozenset(
    f"{clock}{suffix}"
    for clock in ("time.time", "time.perf_counter", "time.monotonic", "time.process_time")
    for suffix in ("", "_ns")
) | {
    "datetime.now", "datetime.utcnow", "datetime.today", "datetime.datetime.now",
    "datetime.datetime.utcnow", "datetime.datetime.today", "datetime.date.today", "date.today",
}


def _det002(tree, module):
    """Simulated time is ``Simulator.now``; a host clock read would leak host speed into results."""
    for node, function in _nodes(tree):
        if isinstance(node, ast.Call) and _dotted(node.func) in _WALLCLOCK:
            yield node, function


# -- PERF001: per-peer state stays in arrays on the hot path --------------


def _plain_classes(tree: ast.AST) -> set[str]:
    """Classes ``tree`` defines without ``@dataclass``: not record types."""
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and not any("dataclass" in ast.unparse(d) for d in node.decorator_list)
    }


_PLAIN_CLASSES = set().union(
    *(_plain_classes(ast.parse(path.read_text())) for path in (ROOT / "src").rglob("*.py"))
)


def _callee(call: ast.Call) -> str:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else func.id if isinstance(func, ast.Name) else ""


def _body_nodes(root: ast.AST):
    """``root`` and what it contains, short of nested functions and classes."""
    yield root
    for child in ast.iter_child_nodes(root):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            yield from _body_nodes(child)


def _perf001(tree, module):
    """No record object built per loop iteration or comprehension element:
    a CamelCase call that names neither an exception nor a class the
    package defines without ``@dataclass``, unless it is raised."""
    plain = _PLAIN_CLASSES | _plain_classes(tree)
    raised = {id(n) for r in ast.walk(tree) if isinstance(r, ast.Raise) for n in ast.walk(r)}
    seen = set()
    for loop, function in _nodes(tree):
        if isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
            roots = loop.body
        elif isinstance(loop, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            roots = [loop.elt]
        elif isinstance(loop, ast.DictComp):
            roots = [loop.key, loop.value]
        else:
            continue
        for node in (n for root in roots for n in _body_nodes(root)):
            name = _callee(node) if isinstance(node, ast.Call) else ""
            if (
                re.fullmatch(r"[A-Z][A-Za-z0-9]*", name)
                and not name.endswith(("Error", "Exception", "Warning"))
                and name not in plain
                and id(node) not in raised | seen
            ):
                seen.add(id(node))
                yield node, function


# -- FRZ001: frozen configs change only through dataclasses.replace --------


def _frz001(tree, module):
    """``object.__setattr__`` only inside construction."""
    for node, function in _nodes(tree):
        if (
            isinstance(node, ast.Call)
            and _dotted(node.func) == "object.__setattr__"
            and function not in ("__init__", "__post_init__", "__setstate__")
        ):
            yield node, function


# -- FLT001: no float sum in a set's or dict view's order ------------------


def _floaty(expr: ast.AST) -> bool:
    """A float literal, a division, ``float()`` or a ``math.*`` call."""
    return any(
        (isinstance(n, ast.Constant) and isinstance(n.value, float))
        or (isinstance(n, ast.BinOp) and isinstance(n.op, ast.Div))
        or (isinstance(n, ast.Call) and re.match(r"float$|math\.", _dotted(n.func) or "") is not None)
        for n in ast.walk(expr)
    )


_WRAPPERS = ("reversed", "iter", "enumerate", "zip", "map", "filter")
_SET_METHODS = ("union", "intersection", "difference", "symmetric_difference", "copy")
_SET_ALGEBRA = (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)


def _unordered(expr: ast.AST, names: set[str]) -> bool:
    """A set or dict view, or an expression that passes one's order on:
    set algebra, either branch, an order-keeping wrapper, or a name or
    helper call (``f()``, ``self.f()``) in ``names``."""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Name):
        return expr.id in names
    if isinstance(expr, ast.BinOp):
        sides = (expr.left, expr.right)
        return isinstance(expr.op, _SET_ALGEBRA) and any(_unordered(e, names) for e in sides)
    if isinstance(expr, (ast.IfExp, ast.BoolOp)):
        parts = (expr.body, expr.orelse) if isinstance(expr, ast.IfExp) else expr.values
        return any(_unordered(e, names) for e in parts)
    if not isinstance(expr, ast.Call):
        return False
    name = _dotted(expr.func) or ""
    if isinstance(expr.func, ast.Attribute):
        attr = expr.func.attr
        view = attr in ("keys", "values", "items") and not expr.args and not expr.keywords
        return view or name in names or (attr in _SET_METHODS and _unordered(expr.func.value, names))
    wrapped = name in _WRAPPERS and any(_unordered(a, names) for a in expr.args)
    return name in ("set", "frozenset") or name in names or wrapped


_SET_ANNOTATION = re.compile(r"(typing\.)?([Ss]et|frozenset|FrozenSet)\b")


def _binds(scope: ast.AST):
    """``(name, value)`` for every plain-name binding in ``scope``; a
    ``set[...]`` annotation binds an empty set, ``acc += x`` binds ``x``
    only under set algebra (``|=``, ``&=``, ``^=``, ``-=``)."""
    for n in _body_nodes(scope):
        if isinstance(n, ast.Assign):
            yield from ((t.id, n.value) for t in n.targets if isinstance(t, ast.Name))
        elif isinstance(n, (ast.AnnAssign, ast.AugAssign, ast.NamedExpr)) and isinstance(n.target, ast.Name):
            if isinstance(n, ast.AnnAssign) and _SET_ANNOTATION.match(ast.unparse(n.annotation)):
                yield n.target.id, ast.Set(elts=[])
            if n.value is not None and (not isinstance(n, ast.AugAssign) or isinstance(n.op, _SET_ALGEBRA)):
                yield n.target.id, n.value


def _set_names(scope: ast.AST, helpers: set[str]) -> set[str]:
    """``helpers`` plus the names ``scope`` binds to a set or view anywhere
    (flow-insensitive: a later ``s = sorted(s)`` does not clear ``s``)."""
    binds = list(_binds(scope))
    names = set(helpers)
    for _ in binds:  # a chain of n assignments settles in n rounds
        names |= {name for name, value in binds if _unordered(value, names)}
    return names


def _flt001(tree, module):
    """Float addition does not associate, so ``sum`` of a float term over
    a set or dict view, or ``acc += float`` in a loop over one, depends on
    the iteration order: sort the iterable or use ``math.fsum``.  A helper
    of the module that can return a set or view counts as one."""
    functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    helpers: set[str] = set()
    while True:
        found = {
            name
            for f in functions
            for r in _body_nodes(f)
            if isinstance(r, ast.Return) and r.value is not None
            and _unordered(r.value, _set_names(f, helpers))
            for name in (f.name, f"self.{f.name}")
        }
        if found <= helpers:
            break
        helpers |= found
    for scope in [tree, *functions]:
        body = list(_body_nodes(scope))
        sets = _set_names(scope, helpers)
        floats = {name for name, value in _binds(scope) if _floaty(value)}
        flagged = {}
        for node in body:
            if (
                isinstance(node, ast.Call)
                and _dotted(node.func) == "sum"
                and node.args
                and isinstance(node.args[0], (ast.GeneratorExp, ast.ListComp))
                and _floaty(node.args[0].elt)
                and any(_unordered(g.iter, sets) for g in node.args[0].generators)
            ):
                flagged[id(node)] = node
            if isinstance(node, (ast.For, ast.AsyncFor)) and _unordered(node.iter, sets):
                for inner in (n for stmt in node.body for n in _body_nodes(stmt)):
                    if (
                        isinstance(inner, ast.AugAssign)
                        and isinstance(inner.op, ast.Add)
                        and (_floaty(inner.value) or getattr(inner.target, "id", None) in floats)
                    ):
                        flagged[id(inner)] = inner
        for node in flagged.values():
            yield node, getattr(scope, "name", None)


# -- EXC001: protocol and simulation code does not swallow errors ---------


def _broad(kind: ast.AST | None) -> bool:
    if kind is None:
        return True
    if isinstance(kind, ast.Tuple):
        return any(_broad(k) for k in kind.elts)
    return (_dotted(kind) or "").rsplit(".", 1)[-1] in ("Exception", "BaseException")


def _exc001(tree, module):
    """A bare, ``Exception`` or ``BaseException`` handler must re-raise:
    swallowing turns a routing bug into a silently wrong result."""
    for node, function in _nodes(tree):
        if (
            isinstance(node, ast.ExceptHandler)
            and _broad(node.type)
            and not any(isinstance(n, ast.Raise) for n in ast.walk(node))
        ):
            yield node, function


def _repro(*packages: str) -> tuple[str, ...]:
    return tuple(f"repro.{p}" for p in packages)


#: Where a host clock would reach a result.
SIMULATED = _repro(
    "sim", "core", "dht", "faults", "experiments", "cache", "engine", "replication", "serve", "loadgen"
)
#: Where iteration order can reach a result.
ORDERED = _repro(
    "sim", "core", "dht", "faults", "topology", "metrics", "util", "cache", "engine",
    "replication", "serve", "loadgen",
)
#: The routing hot path: per-peer state is struct-of-arrays here.
HOT = _repro("dht", "engine", "cache", "core", "scale")
#: Protocol and simulation steps.
PROTOCOL = _repro("sim", "core", "dht", "faults", "engine", "replication", "serve")

#: rule → (is the module in scope, scan)
RULES = {
    "DET001": (lambda m: (_under(m, "repro") and m != "repro.util.rng") or _test_grade(m), _det001),
    "DET002": (lambda m: _under(m, *SIMULATED), _det002),
    "PERF001": (lambda m: _under(m, *HOT), _perf001),
    "FLT001": (lambda m: _under(m, *ORDERED), _flt001),
    "FRZ001": (lambda m: _under(m, "repro"), _frz001),
    "EXC001": (lambda m: _under(m, *PROTOCOL), _exc001),
}

#: rule → {(module, enclosing function): why the site keeps the contract}
ALLOWED = {
    "DET001": {},
    "DET002": {
        ("repro.experiments.bench", "timed"): (
            "the phase timer; readings land in the nondeterministic `phases` key or a printed wall_s"
        ),
    },
    "PERF001": {
        ("repro.cache.network", "_populate"): (
            "cache entries are the cache's storage: one per miss along the path, not one per peer"
        ),
        ("repro.core.hieras", "table2_rows"): "the Table 2 inspection API; routing never calls it",
        ("repro.dht.base", "record_route"): "traced lookups only; an untraced lookup never reaches it",
        ("repro.dht.ring_array", "finger_table"): (
            "the Table 2 inspection helper; routing reads fingers from the arrays"
        ),
    },
    "FLT001": {},
    "FRZ001": {},
    "EXC001": {},
}


def _findings(rule: str, module: str, source: str) -> list[tuple[int, str | None]]:
    """``(line, enclosing function)`` of each site ``rule`` flags in ``source``."""
    in_scope, scan = RULES[rule]
    if not in_scope(module):
        return []
    return [(node.lineno, function) for node, function in scan(ast.parse(source), module)]


def rules(source: str, module: str) -> list[str]:
    """The rule of each site any scan flags in ``source`` as if it sat in
    ``module``, in line order; ``ALLOWED`` does not apply."""
    source = textwrap.dedent(source)
    sites = sorted((line, rule) for rule in RULES for line, _ in _findings(rule, module, source))
    return [rule for _, rule in sites]


def _sources():
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            yield _module(path), path


@pytest.mark.parametrize("rule", sorted(RULES))
def test_the_tree_keeps_the_contract(rule):
    found = [
        f"{path.relative_to(ROOT)}:{line} in {function or 'module scope'}"
        for module, path in _sources()
        for line, function in _findings(rule, module, path.read_text())
        if (module, function) not in ALLOWED[rule]
    ]
    assert found == []


@pytest.mark.parametrize(
    ("rule", "module", "function"),
    [(rule, module, function) for rule in sorted(ALLOWED) for module, function in sorted(ALLOWED[rule])],
)
def test_every_allowed_site_is_found(rule, module, function):
    """The scans are not vacuous: each finds the sites it allows."""
    path = ROOT / "src" / (module.replace(".", "/") + ".py")
    assert function in {f for _, f in _findings(rule, module, path.read_text())}
