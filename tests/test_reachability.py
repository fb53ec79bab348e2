"""Every public definition in ``src/filterbench`` is reached by a suite, the
CLI or a benchmark workload, or is one of a few listed references, each
with the test that compares against it and the reason it stays in the
package.  The other slow definitions live in ``tests/oracles.py``.

Reachability is a fixpoint over identifiers in the AST: a top-level
definition is reached when a ``Name`` or an ``Attribute`` in reached code
spells its name, and a public method of a reached class when an
``Attribute`` does.  Docstrings and strings do not count, and neither does
a ``Name`` that an enclosing function binds itself (a parameter, a nested
definition or an assignment target), since it is local there.  The roots are
every module-level statement of the package (the suite tables behind
``run_suite`` among them), ``cli.main``, ``perfbench/workloads.py`` and
``tests/test_acceptance.py``.

A second scan keeps imports honest: every name that a module of the
package or of ``tests/`` imports is read somewhere in that module.

A third scan goes one level down, to the fields of the package's
dataclasses and NamedTuples: each annotated field is read, as an
``Attribute`` load, by code the roots reach, or it is listed with the
oracle test that reads it.

A fourth scan looks for modes that only tests use: each defaulted
parameter of a function or public method that the roots reach is set, by
keyword or by position, by a call in code the roots reach, or it is listed
with the test that sets it.  Calls match definitions by name, as reaching
does; the ``REFERENCES`` are unreached, so they are exempt.

A fifth scan keeps the oracles apart from the program: every top-level
definition of ``tests/oracles.py`` is imported by a test module, and no
module of the package imports from ``tests/``.
"""

import ast
import math
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "filterbench"
TESTS = ROOT / "tests"
ROOT_FILES = (ROOT / "perfbench" / "workloads.py",
              TESTS / "test_acceptance.py")
ROOT_NAMES = ("cli.main",)  # the console script

# Definitions no root reaches that stay in the package, each with the test
# that compares against it; what they call is reached through them.  Each
# comment says why it has not moved to tests/oracles.py.
REFERENCES = {
    # a suite check of the filter enumeration, planned in ROADMAP.md, would
    # run it
    "filter_algebra.enumerate_filters_bruteforce":
        "tests/test_filter_algebra.py::TestEnumerateFilters::test_matches_bruteforce_oracle",
    # perfbench/tests/test_tracer.py reads it from the package
    "metric_filters.arc_distance":
        "tests/test_metric_filters.py::TestCurveFilters"
        "::test_membership_matches_arc_distance_oracle",
    # perfbench/tests/test_tracer.py reads it from the package
    "geometry.point_polyline_distance":
        "tests/test_geometry.py::test_curve_membership_matches_cap_oracle",
    # public API: reads a written report back
    "reporting.SuiteReport.from_json":
        "tests/test_cli.py::TestReporting::test_round_trip",
}

# Result fields no root reads that stay for an oracle, each with the test
# that reads it.
UNREAD_FIELDS: dict[str, str] = {}

# Defaulted parameters no root sets, each with a test that sets it.
TEST_ONLY_MODES = {
    "cli.main.argv": "tests/test_cli.py::TestMain::test_check_topology_ok",
}

# Imported names that a module keeps without reading them, with the reason.
UNREAD_IMPORTS = {
    "metric_filters.segment_projection_parameter":
        "perfbench/tests/test_tracer.py::test_from_imported_bindings_are_intercepted"
        " reads it as an attribute of metric_filters",
}

_FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)


def _bound_names(node) -> set[str]:
    """The names a function or lambda binds itself: its parameters, and the
    nested definitions and assignment targets of its own body.  Imports are
    not counted, since an imported name still refers to its definition."""
    args = node.args
    names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                             args.vararg, args.kwarg) if a}
    pending = [node.body] if isinstance(node, ast.Lambda) else list(node.body)
    while pending:
        item = pending.pop()
        if isinstance(item, (*_FUNCTION, ast.ClassDef)):
            names.add(item.name)  # its body is a scope of its own
        elif isinstance(item, ast.Name) and isinstance(item.ctx, ast.Store):
            names.add(item.id)
        elif not isinstance(item, ast.Lambda):
            pending.extend(ast.iter_child_nodes(item))
    return names


class _Spelled(ast.NodeVisitor):
    """The identifiers that code reads, as names and as attributes, and the
    calls it makes.  A name that an enclosing function binds is local there,
    so reading it reaches no package definition."""

    def __init__(self):
        self.names: set[str] = set()
        self.attrs: set[str] = set()
        self.loads: set[str] = set()  # the attributes read, not assigned
        # (callee name, positional count, keyword names): a *args counts as
        # every position, a **kwargs as the keyword None
        self.calls: list[tuple[str, float, set[str | None]]] = []
        self._local: frozenset[str] = frozenset()

    def _visit_scope(self, node):
        outer = self._local
        self._local = outer | _bound_names(node)
        self.generic_visit(node)
        self._local = outer

    visit_FunctionDef = visit_AsyncFunctionDef = visit_Lambda = _visit_scope

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and node.id not in self._local:
            self.names.add(node.id)

    def visit_Attribute(self, node):
        self.attrs.add(node.attr)
        if isinstance(node.ctx, ast.Load):
            self.loads.add(node.attr)
        self.visit(node.value)

    def visit_Call(self, node):
        callee = node.func
        name = (callee.attr if isinstance(callee, ast.Attribute)
                else callee.id if isinstance(callee, ast.Name)
                and callee.id not in self._local else None)
        if name is not None:
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            self.calls.append((name, math.inf if starred else len(node.args),
                               {k.arg for k in node.keywords}))
        self.generic_visit(node)


def _is_public(qualified: str) -> bool:
    return not qualified.rsplit(".", 1)[-1].startswith("_")


def _assigned_names(node) -> list[str]:
    """The names a module-level assignment binds."""
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [name.id for target in targets for name in ast.walk(target)
            if isinstance(name, ast.Name)]


def _package():
    """(defs, methods, statements).

    defs maps each top-level qualified name to its node (None for an
    assigned name), methods maps a class's qualified name to its public
    methods by qualified name, and statements lists the module-level
    statements that define nothing."""
    defs: dict[str, ast.AST | None] = {}
    methods: dict[str, dict[str, ast.AST]] = {}
    statements = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (*_FUNCTION, ast.ClassDef)):
                qualified = f"{module}.{node.name}"
                defs[qualified] = node
                if isinstance(node, ast.ClassDef):
                    methods[qualified] = {
                        f"{qualified}.{item.name}": item for item in node.body
                        if isinstance(item, _FUNCTION)
                        and _is_public(item.name)}
                continue
            statements.append(node)
            for name in _assigned_names(node):
                defs[f"{module}.{name}"] = None
    return defs, methods, statements


def _reach(extra_roots=()):
    """(defs, methods, reached, spelled): the package as ``_package`` gives
    it, the qualified names that the roots and ``extra_roots`` reach, and
    the identifiers that the reached code spells."""
    defs, methods, statements = _package()
    nodes = {**defs, **{q: m for ms in methods.values() for q, m in ms.items()}}
    spelled = _Spelled()
    for node in statements:
        spelled.visit(node)
    for path in ROOT_FILES:
        spelled.visit(ast.parse(path.read_text()))
    reached: set[str] = set()
    pending = [*ROOT_NAMES, *extra_roots]
    while pending:
        for qualified in pending:
            reached.add(qualified)
            node = nodes[qualified]
            if isinstance(node, ast.ClassDef):
                public = methods[qualified].values()
                for item in (*node.bases, *node.keywords, *node.decorator_list,
                             *[s for s in node.body if s not in public]):
                    spelled.visit(item)
            elif node is not None:
                spelled.visit(node)
        names = spelled.names | spelled.attrs
        pending = [q for q in defs
                   if q not in reached and q.rsplit(".", 1)[-1] in names]
        pending += [q for cls in methods if cls in reached for q in methods[cls]
                    if q not in reached and q.rsplit(".", 1)[-1] in spelled.attrs]
    return defs, methods, reached, spelled


def unreached(extra_roots=()) -> list[str]:
    """Public definitions and methods of the package that no root, and no
    definition named in ``extra_roots``, reaches."""
    defs, methods, reached, _ = _reach(extra_roots)
    public = {q for q in defs if _is_public(q)}
    public |= {q for cls in methods if cls in reached for q in methods[cls]}
    return sorted(public - reached)


def _test_exists(ref: str) -> bool:
    path, *names = ref.split("::")
    node = ast.parse((ROOT / path).read_text())
    for name in names:
        node = next((item for item in node.body
                     if isinstance(item, (ast.ClassDef, ast.FunctionDef))
                     and item.name == name), None)
        if node is None:
            return False
    return True


def test_every_public_definition_is_reached():
    dead = unreached(REFERENCES)
    assert not dead, f"reached by no suite, CLI command or workload: {dead}"


def test_each_reference_is_unreached_and_has_its_test():
    dead = set(unreached())
    for name, ref in REFERENCES.items():
        assert name in dead, f"{name} is reached now; drop it from REFERENCES"
        assert _test_exists(ref), f"{ref} does not exist"


def unread_imports() -> list[str]:
    """``module.name`` for each name that a module of the package or of
    ``tests/`` imports and never reads."""
    unread = []
    for path in sorted([*PACKAGE.glob("*.py"), *TESTS.glob("*.py")]):
        tree = ast.parse(path.read_text())
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                bound |= {a.asname or a.name for a in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.stem}.{name}" for name in sorted(bound - read)]
    return unread


def test_no_unused_imports():
    unread = unread_imports()
    extra = sorted(set(unread) - set(UNREAD_IMPORTS))
    assert not extra, f"imported and never read: {extra}"
    stale = sorted(set(UNREAD_IMPORTS) - set(unread))
    assert not stale, f"read or no longer imported; drop from UNREAD_IMPORTS: {stale}"


def _is_record_class(node: ast.ClassDef) -> bool:
    """A dataclass or a NamedTuple: its annotated body names are fields."""
    names = {n.id if isinstance(n, ast.Name) else n.attr
             for d in (*node.decorator_list, *node.bases)
             for n in ast.walk(d) if isinstance(n, (ast.Name, ast.Attribute))}
    return bool(names & {"dataclass", "NamedTuple"})


def unread_fields() -> list[str]:
    """``module.Class.field`` for each field of a dataclass or NamedTuple in
    the package that no code the roots reach reads as an attribute."""
    defs, _, _, spelled = _reach()
    return sorted(
        f"{qualified}.{item.target.id}"
        for qualified, node in defs.items()
        if isinstance(node, ast.ClassDef) and _is_record_class(node)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        and item.target.id not in spelled.loads)


def test_every_result_field_is_read():
    unread = unread_fields()
    extra = sorted(set(unread) - set(UNREAD_FIELDS))
    assert not extra, f"fields no suite, CLI command or workload reads: {extra}"
    stale = sorted(set(UNREAD_FIELDS) - set(unread))
    assert not stale, f"read now or gone; drop from UNREAD_FIELDS: {stale}"
    for ref in UNREAD_FIELDS.values():
        assert _test_exists(ref), f"{ref} does not exist"


def _defaulted(node) -> list[tuple[str, int | None]]:
    """(name, position) of each defaulted parameter of a function, where
    position is its index among the positional parameters, or None for a
    keyword-only one."""
    args = node.args
    positional = [*args.posonlyargs, *args.args]
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def unset_defaults() -> list[str]:
    """``module.function.param`` for each defaulted parameter of a function
    or public method the roots reach that no call in reached code sets, by
    keyword or by position."""
    defs, methods, reached, spelled = _reach()
    functions = {q: (n, 0) for q, n in defs.items()
                 if q in reached and isinstance(n, _FUNCTION)}
    for cls in methods:
        if cls in reached:
            for q, n in methods[cls].items():
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in n.decorator_list)
                functions[q] = (n, 0 if static else 1)
    unset = []
    for qualified, (node, skip) in sorted(functions.items()):
        name = qualified.rsplit(".", 1)[-1]
        calls = [c for c in spelled.calls if c[0] == name]
        for param, position in _defaulted(node):
            if not any(param in keywords or None in keywords
                       or (position is not None
                           and position - skip < n_positional)
                       for _, n_positional, keywords in calls):
                unset.append(f"{qualified}.{param}")
    return unset


def test_every_defaulted_parameter_is_set_by_a_root():
    unset = unset_defaults()
    extra = sorted(set(unset) - set(TEST_ONLY_MODES))
    assert not extra, f"modes no suite, CLI command or workload sets: {extra}"
    stale = sorted(set(TEST_ONLY_MODES) - set(unset))
    assert not stale, f"set by a root now or gone; drop from TEST_ONLY_MODES: {stale}"
    for ref in TEST_ONLY_MODES.values():
        assert _test_exists(ref), f"{ref} does not exist"


def unimported_oracles() -> list[str]:
    """The top-level definitions of ``tests/oracles.py`` that no test
    module imports."""
    defined = set()
    for node in ast.parse((TESTS / "oracles.py").read_text()).body:
        if isinstance(node, (*_FUNCTION, ast.ClassDef)):
            defined.add(node.name)
        defined.update(_assigned_names(node))
    imported = {alias.name for path in TESTS.glob("test_*.py")
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom) and node.module == "oracles"
                for alias in node.names}
    return sorted(defined - imported)


def test_every_oracle_is_imported_by_a_test():
    unused = unimported_oracles()
    assert not unused, f"oracles no test module imports: {unused}"


def test_the_package_imports_nothing_from_tests():
    local = {"tests", *(path.stem for path in TESTS.glob("*.py"))}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            found += [f"{path.stem}: {m}" for m in modules
                      if m.split(".")[0] in local]
    assert not found, f"package modules that import from tests/: {found}"


def test_a_local_name_reaches_no_definition():
    spelled = _Spelled()
    spelled.visit(ast.parse(textwrap.dedent("""
        def check(mu, rows, *more, **options):
            def pushforward(x):
                return x
            table = [row for row in rows]
            return (pushforward(mu), table, more, options,
                    filter_leq, fa.point_filter(mu, proper=True))
        """)))
    assert spelled.names == {"filter_leq", "fa"}
    assert spelled.attrs == {"point_filter"}
    assert spelled.calls == [("point_filter", 1, {"proper"})]
