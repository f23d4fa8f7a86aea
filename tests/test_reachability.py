"""Nothing under ``src/repro`` survives unless something real reaches it.

The roots are the CLI, the paper-figure benches, the benchmark harness and
the examples (``ROOTS``). A module, a public top-level function or class,
or a public method that none of them reaches is dead code: delete it with
the tests that only test it. ``ALLOWED`` keeps a name alive for one reason
only: a test of *other* behaviour builds its scenario, or reads its
result, through that name. "Has a unit test" is not a reason. Each reason
names the test files that go through the name, so a reason goes stale
(and fails) once none of them spells it any more.

Reach is decided by name, with stdlib ``ast`` only:

* code runs when what encloses it is reached: a module's top-level
  statements when anything in the module is, a function's body when its
  name is, a class's bases, decorators and class-level statements when
  its name is;
* a name resolves through the imports of the module that uses it,
  following package ``__init__`` re-exports to the defining module. The
  re-export itself reaches nothing, and neither does ``__all__``;
* a method is reached when its class is and reached code reads an
  attribute of that name, or spells the name as a string (as
  ``getattr`` and the metrics feed table do). Any receiver counts, so
  an override is reached with the method it overrides. A dunder method
  lives when its class lives.
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
ROOTS = (
    "src/repro/cli.py",
    "benchmarks/bench_*.py",
    "benchmarks/conftest.py",
    "benchmarks/perf/*.py",
    "examples/*.py",
)

# Kept alive, with what it reaches, because a test of other behaviour goes
# through it: name -> the test file(s) that do, and what for. At least one
# of the named files must spell the name (``test_allow_list_names_its_tests``).
ALLOWED: Dict[str, str] = {
    "repro.engine.context.AnalyticsContext.union":
        "tests/engine/test_stage_launch.py builds its multi-parent narrow stage "
        "with it",
    "repro.engine.rdd.RDD.flat_map":
        "tests/engine/test_fusion.py builds its fused narrow chains with it",
    "repro.engine.rdd.RDD.glom":
        "tests/engine/test_rdd_transformations.py reads the partitions of its "
        "partition_by test through it",
    "repro.engine.rdd.RDD.partition_by":
        "tests/engine/test_aqe_oracle.py, tests/engine/test_shuffle.py and "
        "tests/obs/test_telemetry_sequence.py build explicit shuffles with it",
    "repro.obs.metrics.MetricsRegistry.counter_labels":
        "tests/obs/test_integration.py reads remote shuffle bytes per source "
        "node through it",
    "repro.obs.metrics.MetricsRegistry.counter_value":
        "tests/engine/test_chaos.py, tests/engine/test_speculation.py, "
        "tests/engine/test_lifetime.py and tests/obs/test_integration.py read "
        "counters through it",
    "repro.obs.trace.Tracer.to_chrome":
        "tests/obs/test_integration.py and tests/obs/test_telemetry_determinism.py "
        "read the trace through it",
    "repro.relational.expr.avg":
        "tests/relational/test_oracle.py and tests/relational/test_optimizer_oracle.py "
        "build aggregate queries with it",
    "repro.relational.expr.lit":
        "tests/relational/test_pruning_oracle.py, tests/relational/test_stats.py "
        "(zone maps) and tests/relational/test_cache_backends.py (the cache) "
        "build predicates with it",
    "repro.relational.expr.max_":
        "tests/relational/test_oracle.py builds its aggregate query with it",
    "repro.relational.expr.min_":
        "tests/relational/test_oracle.py builds its aggregate query with it",
    "repro.relational.stats.RangeLayout":
        "tests/relational/test_pruning_oracle.py declares range-partitioned scans "
        "with it",
    "repro.relational.table.Table.from_rows":
        "tests/relational/test_oracle.py, tests/relational/test_optimizer_oracle.py "
        "and tests/relational/test_plan.py build their input tables with it",
    "repro.workloads.datagen.clear_block_cache":
        "tests/chopper/test_parallel_fallback.py starts each sweep from a cold "
        "block cache with it",
}

Binding = Tuple[str, Optional[str]]  # (module, member or None for the module)


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _bindings(tree: ast.Module, module: str, is_package: bool) -> Dict[str, Binding]:
    """Every name an import anywhere in the file binds, and what it names."""
    package = module if is_package else module.rpartition(".")[0]
    bound: Dict[str, Binding] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bound[alias.asname] = (alias.name, None)
                else:
                    head = alias.name.partition(".")[0]
                    bound[head] = (head, None)
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level:
                base = package.rsplit(".", node.level - 1)[0]
                source = f"{base}.{source}" if source else base
            for alias in node.names:
                bound[alias.asname or alias.name] = (source, alias.name)
    return bound


def _walk(nodes: List[ast.AST]) -> Iterator[ast.AST]:
    """Every node under ``nodes`` except an ``__all__`` assignment's."""
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _header(node: ast.AST) -> List[ast.AST]:
    """What a ``def`` or ``class`` statement runs where it stands."""
    if isinstance(node, ast.ClassDef):
        return [*node.decorator_list, *node.bases, *node.keywords]
    args = node.args
    return [*node.decorator_list, *args.defaults, *(d for d in args.kw_defaults if d)]


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


class Reach:
    """The package indexed by unit of code, and the fixpoint over the roots."""

    def __init__(self) -> None:
        self.trees: Dict[str, ast.Module] = {}
        self.bound: Dict[str, Dict[str, Binding]] = {}
        self.defs: Dict[str, Dict[str, ast.AST]] = {}
        # class id -> {method name: method id}
        self.methods: Dict[str, Dict[str, str]] = {}
        # unit id -> (module whose names it uses, the nodes it runs)
        self.units: Dict[str, Tuple[str, List[ast.AST]]] = {}
        self.packages: Set[str] = set()
        for path in sorted(PACKAGE.rglob("*.py")):
            self._index(_module_name(path), path)
        self.reached: Set[str] = set()
        self.attrs: Set[str] = set()
        self._todo: List[str] = []

    def _index(self, module: str, path: Path) -> None:
        tree = ast.parse(path.read_text(), filename=str(path))
        self.trees[module] = tree
        if path.name == "__init__.py":
            self.packages.add(module)
        self.bound[module] = _bindings(tree, module, module in self.packages)
        self.defs[module] = {}
        top: List[ast.AST] = []
        for stmt in tree.body:
            if not isinstance(stmt, (*_FUNCTIONS, ast.ClassDef)):
                top.append(stmt)
                continue
            top.extend(_header(stmt))
            ident = f"{module}.{stmt.name}"
            self.defs[module][stmt.name] = stmt
            if isinstance(stmt, _FUNCTIONS):
                self.units[ident] = (module, stmt.body)
                continue
            body: List[ast.AST] = []
            self.methods[ident] = {}
            for item in stmt.body:
                if isinstance(item, _FUNCTIONS):
                    body.extend(_header(item))
                    self.methods[ident][item.name] = f"{ident}.{item.name}"
                    self.units[f"{ident}.{item.name}"] = (module, item.body)
                else:
                    body.append(item)
            self.units[ident] = (module, body)
        self.units[module] = (module, top)

    # -- resolution -------------------------------------------------------

    def resolve(self, module: str, member: Optional[str], seen: int = 0) -> Optional[str]:
        """The unit ``module.member`` names; its module for a plain variable."""
        if member is None:
            return module if module in self.trees else None
        if f"{module}.{member}" in self.trees:
            return f"{module}.{member}"
        if module not in self.trees:
            return None
        if member in self.defs[module]:
            return f"{module}.{member}"
        target = self.bound[module].get(member)
        if target is not None and seen < 8:
            return self.resolve(*target, seen=seen + 1)
        return module

    def _name(self, module: str, bound: Dict[str, Binding], name: str) -> Optional[str]:
        if name in self.defs.get(module, ()):
            return f"{module}.{name}"
        if name in bound:
            return self.resolve(*bound[name])
        return None

    def _chain(self, module: str, bound: Dict[str, Binding], node: ast.Attribute) -> Optional[str]:
        """``pkg.mod.func`` spelled through a module binding, else None."""
        if isinstance(node.value, ast.Name):
            base = self._name(module, bound, node.value.id)
        elif isinstance(node.value, ast.Attribute):
            base = self._chain(module, bound, node.value)
        else:
            return None
        if base is None or base not in self.trees:
            return None
        self.reach(base)
        return self.resolve(base, node.attr)

    # -- the fixpoint -----------------------------------------------------

    def reach(self, ident: Optional[str]) -> None:
        if ident is None or ident in self.reached:
            return
        self.reached.add(ident)
        self._todo.append(ident)
        module = ident
        while module not in self.trees:
            module = module.rpartition(".")[0]
        while module:
            self.reach(module)
            module = module.rpartition(".")[0]
        for name, method in self.methods.get(ident, {}).items():
            if _is_dunder(name):
                self.reach(method)

    def scan(self, module: str, bound: Dict[str, Binding], nodes: List[ast.AST]) -> None:
        for node in _walk(nodes):
            if isinstance(node, ast.Name):
                self.reach(self._name(module, bound, node.id))
            elif isinstance(node, ast.Attribute):
                self.attrs.add(node.attr)
                self.reach(self._chain(module, bound, node))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.isidentifier():
                    self.attrs.add(node.value)
            elif isinstance(node, ast.Tuple):
                self._target(node)

    def _target(self, node: ast.Tuple) -> None:
        """``("repro.mod", "Class.method")``: a patch target names its member."""
        strings = [
            e.value for e in node.elts
            if isinstance(e, ast.Constant) and isinstance(e.value, str)
        ]
        for module in (s for s in strings if s in self.trees):
            for path in strings:
                head, _, attr = path.partition(".")
                if path == module or not head.isidentifier():
                    continue
                ident = self.resolve(module, head)
                self.reach(ident)
                if attr:
                    self.reach(self.methods.get(ident, {}).get(attr))

    def run(self, roots: Iterable[Path] = (), names: Iterable[str] = ()) -> Set[str]:
        """Reach from ``roots`` and ``names`` on top of what is reached already."""
        for path in roots:
            if PACKAGE in path.parents:
                self.reach(_module_name(path))
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            self.scan("", _bindings(tree, "", False), tree.body)
        for name in names:
            self.reach(name)
        while self._todo:
            while self._todo:
                module, nodes = self.units[self._todo.pop()]
                self.scan(module, self.bound[module], nodes)
            for cls in [c for c in self.methods if c in self.reached]:
                for name, method in self.methods[cls].items():
                    if name in self.attrs:
                        self.reach(method)
        return set(self.reached)

    def public(self) -> Iterator[str]:
        """Every module, public top-level def and public method, outermost first."""
        for module in self.trees:
            if module not in self.packages:
                yield module
            for name in self.defs[module]:
                if not _is_public(name):
                    continue
                yield f"{module}.{name}"
                for method in self.methods.get(f"{module}.{name}", {}):
                    if _is_public(method):
                        yield f"{module}.{name}.{method}"


@functools.lru_cache(maxsize=None)
def analyse() -> Tuple[List[str], FrozenSet[str], FrozenSet[str]]:
    """(every checked name, what the roots reach, that plus the allow-list)."""
    reach = Reach()
    roots = sorted({p for pattern in ROOTS for p in ROOT.glob(pattern)})
    by_roots = reach.run(roots)
    kept = reach.run(names=ALLOWED)
    return list(reach.public()), frozenset(by_roots), frozenset(kept)


def test_everything_is_reached_or_allowed():
    names, _, kept = analyse()
    dead: List[str] = []
    for ident in names:
        if ident in kept:
            continue
        if not any(ident.startswith(d + ".") for d in dead):
            dead.append(ident)
    assert not dead, "nothing reaches:\n  " + "\n  ".join(dead)


def test_allow_list_is_honest():
    names, by_roots, _ = analyse()
    assert sorted(set(ALLOWED) - set(names)) == [], "allow-listed but missing"
    assert sorted(set(ALLOWED) & by_roots) == [], "allow-listed but reached"


def test_allow_list_names_its_tests():
    stale: List[str] = []
    for ident, reason in ALLOWED.items():
        files = re.findall(r"tests/[\w/]+\.py", reason)
        spelled = re.compile(rf"\b{re.escape(ident.rpartition('.')[2])}\b")
        if not any(
            (ROOT / f).is_file() and spelled.search((ROOT / f).read_text())
            for f in files
        ):
            stale.append(f"{ident}: {files or 'no test file named'}")
    assert not stale, "no named test file spells the name:\n  " + "\n  ".join(stale)
