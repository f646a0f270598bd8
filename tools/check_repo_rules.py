#!/usr/bin/env python3
"""Repo-level AST lint: conventions the test suite can't see.

Eight rules:

* **no-numpy-random** (kernel modules only): kernels must never reach into
  ``numpy.random`` directly.  Kernels are supposed to be pure array
  transforms — any randomness (dropout masks, fault injection, noise
  models) has to flow through ``repro.util.rng`` so sweeps stay
  reproducible under a single seed.  A stray ``np.random.normal(...)``
  inside a kernel silently breaks run-to-run parity, which is exactly the
  class of bug this repo exists to catch in *other* people's deployments.
* **no-mutable-default** (all of ``src/``): no list/dict/set literals (or
  comprehensions) as function-argument defaults — the one shared instance
  mutates across calls, the classic Python footgun.
* **no-bare-except** (all of ``src/``): ``except:`` with no exception type
  swallows ``KeyboardInterrupt``/``SystemExit`` and hides real bugs; name
  the exception (at minimum ``except Exception:``).
* **alias-annotation** (executor modules only, ``executors*.py``): a
  top-level executor that returns ``something.reshape(...)`` hands the
  runtime a *view* of its input.  The arena packer merges the slot of a
  view op with its input's slot only when the executor is decorated with
  ``@aliases_input``; an undecorated reshape-return gets a slot of its own,
  so the packed layout over-allocates.  Either decorate the executor or
  materialize a copy.
* **dangling-all** (all of ``src/``): every string in a module's
  ``__all__`` must be bound at module level — by an import, ``def``,
  ``class`` or assignment.  A deletion that forgets its package re-export
  leaves a name that ``from pkg import *`` and the docs promise but that
  raises ``AttributeError`` on use.
* **no-np-pad** (``src/repro/kernels``, ``runtime`` and ``pipelines``): no
  ``np.pad``/``numpy.pad`` calls.  Every spatial pad goes through
  ``repro.kernels.common.pad_spatial``, one preallocated fill plus a slice
  assignment; ``np.pad``'s fixed per-call cost is about ten times that at
  batch 1, where a streamed edge frame pads on every depthwise layer.
* **test-only-definition** (whole tree, when a root named ``src`` is
  checked): every undecorated top-level ``def``, ``class`` or assignment
  in ``src/`` must be referenced — by a ``Name`` or ``Attribute`` node
  outside its own definition — somewhere in ``src/``, ``bench/``,
  ``benchmarks/``, ``examples/`` or ``tools/``.  Imports, ``__all__``
  strings and docstrings do not count, and neither does ``tests/``: a
  definition only tests reach is code nothing ships.  The same holds
  for every undecorated public method of a ``src/`` class whose bases are
  all ``src/`` classes (or none): a reference to the method's name outside
  its own body counts.  References match by what they can reach
  (:class:`_Scope`): a bare name reaches top-level definitions; an
  attribute of a module alias (``ops.conv2d`` after ``from repro.autograd
  import ops``) reaches that module's own or re-exported definitions and
  no method; any other attribute reaches methods, and the definitions of
  a module passed around as a value.  Classes deriving from a stdlib or
  third-party base are skipped, since their methods may be hooks the base
  calls.  Decorated definitions are exempt (registries such as
  ``@register_rule`` call them); :data:`TEST_ONLY_ALLOWLIST` names the
  few kept on purpose (methods as ``Class.method``), and an entry that is
  no longer defined or has gained a caller is itself a violation, so the
  list cannot rot.
* **dead-knob** (same pass and roots as test-only-definition): every
  defaulted parameter of a ``src/`` top-level function, constructor
  (``__init__``) or public/static/class method of a ``src/``-based class
  must be passed by some call in ``src/``, ``bench/``, ``benchmarks/``,
  ``examples/`` or ``tools/`` — by keyword, by position, or through a
  ``*``/``**`` splat.  A literal equal to the default (``f(x=0.2)`` for
  ``x=0.2``) does not count: it changes nothing.  Calls match by what
  they can reach, as test-only-definition references do, so ``b.conv(...)``
  passes nothing to a top-level ``conv``;
  a call of a class, of ``cls`` inside one, or of ``super().__init__``
  reaches the ``__init__`` that runs.  A call inside a checked function
  that only forwards that function's own defaulted parameter, unchanged and
  with the same default (``f(keys=keys)``), counts only when some call
  passes the outer parameter (:class:`_Forwards`).  A default only tests
  override is a setting no deployment changes: make it a constant.
  :data:`DEAD_KNOB_ALLOWLIST` names the kept ones (``func(param)``,
  ``Class(param)`` for constructors, ``Class.method(param)``) with a
  reason, and a stale entry is itself a violation.

Stdlib only (``ast``) so CI can run it before any dependency install.

Usage::

    python tools/check_repo_rules.py [root ...]

Exits 1 and prints ``path:line: message`` for every violation.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC_ROOT = Path("src")
KERNEL_ROOT = Path("src/repro/kernels")
PAD_HELPER_ROOTS = (KERNEL_ROOT, Path("src/repro/runtime"),
                    Path("src/repro/pipelines"))
SANCTIONED = "repro.util.rng"

NON_TEST_ROOTS = ("src", "bench", "benchmarks", "examples", "tools")
TEST_ONLY_ALLOWLIST = {
    "rule_catalog": "the README library surface, and the source the "
                    "README rule-table sync test reads",
    "EdgeMLMonitor.detach": "the inverse of attach(); the only way to stop "
                            "a monitor observing a long-lived interpreter",
}

DEAD_KNOB_ALLOWLIST = {
    # Seams a test uses to substitute a fake, observe a step or inject a
    # fault.
    "lint_graph(resolver)": "rule fixtures lint against a resolver with "
                            "a kernel removed",
    "lint_graph(plan)": "rule fixtures inject a plan with a tampered free "
                        "schedule",
    "Var.backward(grad)": "gradient checks backpropagate a random "
                          "cotangent from non-scalar outputs",
    "main(argv)": "CLI tests drive the parser with argument lists",
    "main(out)": "CLI tests capture the command's output stream",
    "SweepCoordinator(clock)": "lease-expiry tests drive a fake clock",
    "run_worker(attempts)": "worker tests bound retries against a fake "
                            "coordinator",
    "run_worker(base_delay)": "worker tests pin the backoff schedule",
    "run_worker(sleep)": "worker tests record backoff sleeps instead of "
                         "waiting",
    "run_worker(client)": "worker tests substitute a fault-injecting "
                          "coordinator client",
    "with_retries(jitter)": "retry tests make the schedule exact with "
                            "jitter=0",
    "with_retries(rng)": "retry tests seed the jitter",
    "with_retries(on_retry)": "retry tests observe each backoff",
    "with_retries(sleep)": "retry tests record backoff sleeps instead of "
                           "waiting; run_worker only forwards its own seam",
    "backoff_delays(jitter)": "retry tests make the schedule exact with "
                              "jitter=0; with_retries only forwards its "
                              "own seam",
    "backoff_delays(rng)": "retry tests seed the jitter; with_retries only "
                           "forwards its own seam",
    "iter_sweep(on_dispatch)": "scheduler tests observe dispatch order",
    # Deployment settings.
    "CoordinatorClient(timeout_s)": "per-request HTTP timeout, a property "
                                    "of the network the fleet runs on",
}

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set,
                     ast.ListComp, ast.DictComp, ast.SetComp)


def _numpy_aliases(tree: ast.AST) -> set[str]:
    """Names ``import numpy [as x]`` binds anywhere in the module."""
    return {alias.asname or "numpy" for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names if alias.name == "numpy"}


def _check_numpy_random(path: str, tree: ast.AST) -> list[tuple[str, int, str]]:
    """Kernel-only rule: no direct numpy.random use."""
    violations: list[tuple[str, int, str]] = []
    numpy_aliases = _numpy_aliases(tree)

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("numpy.random"):
                    violations.append((path, node.lineno,
                                       f"imports {alias.name}; use "
                                       f"{SANCTIONED} instead"))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module == "numpy":
                for alias in node.names:
                    if alias.name == "random":
                        violations.append((path, node.lineno,
                                           "imports numpy.random; use "
                                           f"{SANCTIONED} instead"))
            elif module.startswith("numpy.random"):
                violations.append((path, node.lineno,
                                   f"imports from {module}; use "
                                   f"{SANCTIONED} instead"))

    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "random"
                and isinstance(node.value, ast.Name)
                and node.value.id in numpy_aliases):
            violations.append((path, node.lineno,
                               f"calls {node.value.id}.random directly; "
                               f"use {SANCTIONED} instead"))
    return violations


def _check_no_np_pad(path: str, tree: ast.AST) -> list[tuple[str, int, str]]:
    """Runtime-only rule: pad through ``pad_spatial``, never ``numpy.pad``."""
    aliases = _numpy_aliases(tree)
    message = ("numpy.pad in a runtime module; pad through "
               "repro.kernels.common.pad_spatial instead")
    violations: list[tuple[str, int, str]] = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module == "numpy"
                and any(alias.name == "pad" for alias in node.names)):
            violations.append((path, node.lineno, message))
        elif (isinstance(node, ast.Attribute) and node.attr == "pad"
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            violations.append((path, node.lineno, message))
    return violations


def _check_mutable_defaults(path: str,
                            tree: ast.AST) -> list[tuple[str, int, str]]:
    """No list/dict/set literals (or comprehensions) as argument defaults."""
    violations: list[tuple[str, int, str]] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        defaults = list(node.args.defaults) + \
            [d for d in node.args.kw_defaults if d is not None]
        name = getattr(node, "name", "<lambda>")
        for default in defaults:
            if isinstance(default, _MUTABLE_LITERALS):
                violations.append((
                    path, default.lineno,
                    f"mutable default argument in {name!r}; the instance "
                    "is shared across calls — default to None and build "
                    "inside the body"))
    return violations


def _decorator_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    names: set[str] = set()
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, ast.Attribute):
            names.add(target.attr)
    return names


def _check_executor_view_annotations(
        path: str, tree: ast.AST) -> list[tuple[str, int, str]]:
    """Executor-only rule: reshape-returns must declare ``@aliases_input``.

    Only *direct* ``return x.reshape(...)`` statements in top-level
    functions are flagged — a reshape that feeds further computation
    produces a fresh array downstream and never escapes as a view.
    """
    violations: list[tuple[str, int, str]] = []
    body = tree.body if isinstance(tree, ast.Module) else []
    for fn in body:
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if "aliases_input" in _decorator_names(fn):
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.Return)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Attribute)
                    and node.value.func.attr == "reshape"):
                violations.append((
                    path, node.lineno,
                    f"executor {fn.name!r} returns a .reshape(...) view "
                    "without an @aliases_input annotation; the arena "
                    "packer would give the view a slot of its own — "
                    "decorate the executor or return a copy"))
    return violations


def _check_bare_except(path: str, tree: ast.AST) -> list[tuple[str, int, str]]:
    """No ``except:`` without an exception type."""
    return [(path, node.lineno,
             "bare 'except:' swallows KeyboardInterrupt/SystemExit; "
             "name the exception type")
            for node in ast.walk(tree)
            if isinstance(node, ast.ExceptHandler) and node.type is None]


_SCOPES = (ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp,
           ast.GeneratorExp)


def _module_bindings(tree: ast.Module) -> set[str]:
    """Names a module binds at module level, including inside module-level
    ``if``/``try``/``with``/``for`` blocks but not in nested scopes."""
    names: set[str] = set()
    todo: list[ast.AST] = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Import):
            names.update((a.asname or a.name).partition(".")[0]
                         for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))
    return names


def _check_dangling_all(path: str,
                        tree: ast.Module) -> list[tuple[str, int, str]]:
    """Every ``__all__`` entry must name a module-level binding."""
    bound = _module_bindings(tree)
    violations: list[tuple[str, int, str]] = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        if not any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets):
            continue
        for elt in getattr(node.value, "elts", []):
            if (isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                    and elt.value not in bound):
                violations.append((
                    path, elt.lineno,
                    f"__all__ lists {elt.value!r}, which the module never "
                    "binds; import or define it, or drop the entry"))
    return violations


def _top_level_definitions(tree: ast.Module):
    """Yield ``(name, node)`` for each undecorated module-body ``def``,
    ``class`` and assigned name, dunders (``__all__``...) excluded."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            if not node.decorator_list:
                yield node.name, node
            continue
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if (isinstance(name, ast.Name)
                        and not name.id.startswith("__")):
                    yield name.id, node


def _public_methods(tree: ast.Module, src_classes: set[str]):
    """Yield ``("Class.method", method, node)`` for each undecorated public
    method of a module-level class whose bases are all ``src_classes``."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef) or not all(
                getattr(base, "id", getattr(base, "attr", None))
                in src_classes for base in cls.bases):
            continue
        for node in cls.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not node.decorator_list
                    and not node.name.startswith("_")):
                yield f"{cls.name}.{node.name}", node.name, node


class _Scope:
    """What a ``Name``/``Attribute`` load can reach, for both whole-tree
    rules.

    A bare name reaches any module's top-level definitions of that name
    (imports are not followed).  An attribute of a module — ``m.f`` after
    ``import a.b as m`` or ``from a import b`` where ``a.b`` is a parsed
    module — reaches the ``f`` that module defines or re-exports, and no
    method.  Any other attribute reaches methods, and the top-level
    definitions of every module some file uses as a value (passes, assigns
    or returns, not only dots through): ``bench/tracing.py`` passes the
    ``triage`` module to ``self._patch(triage, "triage_sweep", ...)``, so
    an attribute ``owner.triage_sweep`` anywhere reaches
    ``triage.triage_sweep``.
    """

    def __init__(self, trees):
        self.modules = {module: tree for _, _, tree, module in trees}
        self.aliases: dict[str, dict[str, str]] = {}
        self._origins: dict[tuple[str, str], str | None] = {}
        value_modules: set[str] = set()
        for _, path, tree, _ in trees:
            aliases: dict[str, str] = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    aliases.update((a.asname, a.name) if a.asname
                                   else (a.name.partition(".")[0],) * 2
                                   for a in node.names)
                elif isinstance(node, ast.ImportFrom) and node.module:
                    aliases.update(
                        (a.asname or a.name, f"{node.module}.{a.name}")
                        for a in node.names
                        if f"{node.module}.{a.name}" in self.modules)
            self.aliases[path] = aliases
            dotted = {id(node.value) for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute)}
            value_modules.update(
                aliases[node.id] for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in aliases and id(node) not in dotted)
        self.value_names: dict[str, set[str]] = {}
        for module in value_modules & set(self.modules):
            for name in _module_bindings(self.modules[module]):
                if origin := self._origin(module, name):
                    self.value_names.setdefault(name, set()).add(origin)

    def _origin(self, module: str, name: str) -> str | None:
        """The parsed module defining what *module* binds as *name*,
        following module-level ``from x import name`` re-exports; ``None``
        when that is a module or lies outside the parsed trees."""
        if module not in self.modules:
            return None
        key = (module, name)
        if key not in self._origins:
            self._origins[key] = None  # a re-export cycle reaches nothing
            origin = module
            for node in self.modules[module].body:
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                for alias in node.names:
                    if (alias.asname or alias.name) != name:
                        continue
                    origin = None
                    if (isinstance(node, ast.ImportFrom)
                            and f"{node.module}.{alias.name}"
                            not in self.modules):
                        origin = self._origin(node.module, alias.name)
            self._origins[key] = origin
        return self._origins[key]

    def _module_of(self, path: str, node: ast.expr) -> str | None:
        """The module a dotted expression names, or ``None`` when it is not
        a module (``m.Class`` is not)."""
        dotted = _dotted(node)
        head, *rest = (dotted or "").split(".")
        module = self.aliases[path].get(head)
        for part in rest:
            if module is None or f"{module}.{part}" not in self.modules:
                return None
            module = f"{module}.{part}"
        return module

    def reaches(self, path: str, node: ast.expr):
        """Yield ``("top", name, module)`` (``module`` ``None`` for a bare
        name, which any module's definition matches) and
        ``("member", name)`` targets for a ``Name``/``Attribute`` node."""
        if isinstance(node, ast.Name):
            yield "top", node.id, None
        elif isinstance(node, ast.Attribute):
            module = self._module_of(path, node.value)
            if module is not None:
                if origin := self._origin(module, node.attr):
                    yield "top", node.attr, origin
                return
            yield "member", node.attr
            for origin in self.value_names.get(node.attr, ()):
                yield "top", node.attr, origin

    @staticmethod
    def top(name: str, module: str) -> tuple[tuple, tuple]:
        """The targets that reach top-level *name* of *module*."""
        return ("top", name, None), ("top", name, module)


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a chain of attribute lookups on a name, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _references(path: str, tree: ast.Module, scope: _Scope):
    """Yield ``(target, statement, member)`` for each ``Name``/``Attribute``
    load, one per target :meth:`_Scope.reaches` names: the module-body
    statement it sits in and, inside a class body, the class-body statement
    (else ``None``)."""
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            scopes = [(member, member) for member in stmt.body]
            scopes += [(node, None) for node in (
                *stmt.bases, *stmt.keywords, *stmt.decorator_list)]
        else:
            scopes = [(stmt, None)]
        for node_scope, member in scopes:
            for node in ast.walk(node_scope):
                if (isinstance(node, (ast.Name, ast.Attribute))
                        and isinstance(node.ctx, ast.Load)):
                    for target in scope.reaches(path, node):
                        yield target, stmt, member


def _allowlist_line(name: str) -> int:
    for lineno, line in enumerate(Path(__file__).read_text().splitlines(),
                                  1):
        if line.lstrip().startswith(f'"{name}":'):
            return lineno
    return 1


def check_test_only_definitions(
        repo: Path, allowlist: dict[str, str] | None = None,
) -> list[tuple[str, int, str]]:
    """Whole-tree rule: flag ``src/`` definitions only tests reference."""
    return _test_only_violations(_parse_non_test_roots(repo), allowlist)


def _test_only_violations(trees, allowlist):
    allowlist = TEST_ONLY_ALLOWLIST if allowlist is None else allowlist
    scope = _Scope(trees)
    src_trees = [(path, tree, module) for root, path, tree, module in trees
                 if root == "src"]
    callers: dict[tuple, list[tuple[ast.stmt, ast.stmt | None]]] = {}
    for _, path, tree, _ in trees:
        for target, stmt, member in _references(path, tree, scope):
            callers.setdefault(target, []).append((stmt, member))
    src_classes = {node.name for _, tree, _ in src_trees
                   for node in tree.body if isinstance(node, ast.ClassDef)}
    # (path, allowlist key, reaching targets, node, is a class member)
    definitions: list[tuple[str, str, tuple, ast.AST, bool]] = []
    for path, tree, module in src_trees:
        definitions += [(path, name, scope.top(name, module), node, False)
                        for name, node in _top_level_definitions(tree)]
        definitions += [(path, key, (("member", name),), node, True)
                        for key, name, node in _public_methods(tree,
                                                               src_classes)]
    violations: list[tuple[str, int, str]] = []
    defined: set[str] = set()
    for path, key, targets, node, is_member in definitions:
        defined.add(key)
        used = any((member if is_member else stmt) is not node
                   for target in targets
                   for stmt, member in callers.get(target, ()))
        if key in allowlist:
            if used:
                violations.append((
                    path, node.lineno,
                    f"{key!r} is allowlisted as test-only but non-test "
                    "code references it; drop its TEST_ONLY_ALLOWLIST "
                    "entry"))
        elif not used:
            violations.append((
                path, node.lineno,
                f"{key!r} is referenced only by tests (or not at all); "
                "delete it, move it into tests/, or allowlist it with a "
                "reason"))
    violations += [(__file__, _allowlist_line(name),
                    f"TEST_ONLY_ALLOWLIST entry {name!r} names no top-level "
                    "definition or public method in src/; drop the entry")
                   for name in allowlist if name not in defined]
    return violations


def _defaulted_params(fn: ast.FunctionDef | ast.AsyncFunctionDef, skip: int):
    """Yield ``(name, slot, default)`` for each parameter of *fn* with a
    default.  *slot* is its positional index once the first *skip*
    parameters (``self``/``cls``) are dropped, or ``None`` when it is
    keyword-only; *default* is the default's expression."""
    positional = [*fn.args.posonlyargs, *fn.args.args]
    first = len(positional) - len(fn.args.defaults)
    for index, (arg, default) in enumerate(
            zip(positional[first:], fn.args.defaults), first):
        yield arg.arg, index - skip, default
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg.arg, None, default


def _knob_owners(src_trees, src_classes):
    """Yield ``(path, key prefix, callees, fn, skip)`` for each function
    whose defaulted parameters the dead-knob rule checks: top-level
    functions (callees :meth:`_Scope.top`), every class's ``__init__``
    (``("init", Class)``) and the public, static and class methods of
    classes whose bases are all ``src/`` classes (``("member", name)``)."""
    for path, tree, module in src_trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path, node.name, _Scope.top(node.name, module), node, 0
            if not isinstance(node, ast.ClassDef):
                continue
            own_bases = all(getattr(base, "id", getattr(base, "attr", None))
                            in src_classes for base in node.bases)
            for member in node.body:
                if not isinstance(member, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)):
                    continue
                decorators = _decorator_names(member)
                if member.name == "__init__":
                    yield path, node.name, (("init", node.name),), member, 1
                elif (own_bases and not member.name.startswith("_")
                        and decorators <= {"classmethod", "staticmethod"}):
                    yield (path, f"{node.name}.{member.name}",
                           (("member", member.name),), member,
                           0 if "staticmethod" in decorators else 1)


def _calls(trees, scope: _Scope, bases: dict[str, list[str]],
           inits: set[str]):
    """Yield ``(callee, call)`` for every call in *trees*.  A call reaches
    what :meth:`_Scope.reaches` names for its function; a call of a
    ``src/`` class, of ``cls`` inside one, or of ``super().__init__`` also
    reaches ``("init", owner)``, the class whose ``__init__`` runs."""
    def init_owner(name, seen=()):
        if name in inits:
            return name
        for base in bases.get(name, ()):
            if base not in seen and (owner := init_owner(base, (*seen, name))):
                return owner
        return None

    for _, path, tree, _ in trees:
        for stmt in tree.body:
            context = stmt.name if isinstance(stmt, ast.ClassDef) else None
            for call in ast.walk(stmt):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                name = getattr(func, "id", getattr(func, "attr", None))
                if name is None:
                    continue
                for target in scope.reaches(path, func):
                    yield target, call
                owner = None
                if name == "cls" and context:
                    owner = init_owner(context)
                elif (name == "__init__" and context
                        and isinstance(func.value, ast.Call)
                        and getattr(func.value.func, "id", None) == "super"):
                    owner = next(filter(None, map(
                        init_owner, bases.get(context, ()))), None)
                elif name in bases:
                    owner = init_owner(name)
                if owner:
                    yield ("init", owner), call


def _literal(node: ast.expr):
    """``(type, value)`` of a literal expression, or ``None`` for any other."""
    try:
        value = ast.literal_eval(node)
    except ValueError:
        return None
    return type(value), value


def _passed_value(call: ast.Call, param: str,
                  slot: int | None) -> ast.expr | bool | None:
    """What *call* passes as *param*: the expression, by keyword or by
    position; ``True`` when a ``*``/``**`` splat may pass it; else
    ``None``."""
    value = None
    for kw in call.keywords:
        if kw.arg is None:
            return True
        if kw.arg == param:
            value = kw.value
    if value is None and slot is not None:
        before = call.args[:slot + 1]
        if any(isinstance(arg, ast.Starred) for arg in before):
            return True
        if len(call.args) > slot:
            value = call.args[slot]
    return value


class _Forwards:
    """Which defaulted parameters non-test calls pass, following forwards.

    A call inside a checked function *g* that passes *g*'s own defaulted
    parameter on unchanged (``f(keys=keys)``, *g* never rebinding
    ``keys``) with the same default as *f*'s passes *f* nothing by itself:
    it counts only when some call passes *g*'s parameter, followed the same
    way (a forwarding cycle passes nothing).
    """

    def __init__(self, owners, calls):
        self.calls = calls
        self.callees = {id(fn): callees for _, _, callees, fn, _ in owners}
        self.params = {id(fn): {name: (slot, default) for name, slot, default
                                in _defaulted_params(fn, skip)}
                       for _, _, _, fn, skip in owners}
        self.rebound = {id(fn): {node.id for node in ast.walk(fn)
                                 if isinstance(node, ast.Name)
                                 and not isinstance(node.ctx, ast.Load)}
                        for _, _, _, fn, _ in owners}
        self.enclosing = {id(call): fn for _, _, _, fn, _ in owners
                          for call in ast.walk(fn)
                          if isinstance(call, ast.Call)}

    def passed(self, fn, param: str, visiting=frozenset()) -> bool:
        """Whether some non-test call may set *fn*'s *param* to something
        other than its default."""
        slot, default = self.params[id(fn)][param]
        visiting |= {(id(fn), param)}
        for callee in self.callees[id(fn)]:
            for call in self.calls.get(callee, ()):
                value = _passed_value(call, param, slot)
                if value is None:
                    continue
                if value is True:
                    return True
                literal = _literal(default)
                if literal is not None and _literal(value) == literal:
                    continue  # the default literal changes nothing
                outer = self.enclosing.get(id(call))
                forwarded = (
                    outer is not None and isinstance(value, ast.Name)
                    and value.id in self.params[id(outer)]
                    and value.id not in self.rebound[id(outer)]
                    and ast.dump(self.params[id(outer)][value.id][1])
                    == ast.dump(default))
                if not forwarded:
                    return True
                if ((id(outer), value.id) not in visiting
                        and self.passed(outer, value.id, visiting)):
                    return True
        return False


def _parse_non_test_roots(
        repo: Path) -> list[tuple[str, str, ast.Module, str]]:
    """``(root, path, tree, module)`` for every parseable module under
    :data:`NON_TEST_ROOTS`; unparseable files are left to ``check_source``.
    *module* is the dotted import name: relative to ``src/`` there, to the
    repo elsewhere (``bench/cli.py`` is ``bench.cli``)."""
    trees: list[tuple[str, str, ast.Module, str]] = []
    for root in NON_TEST_ROOTS:
        for path in sorted((repo / root).rglob("*.py")):
            parts = path.relative_to(
                repo / root if root == "src" else repo).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            try:
                trees.append((root, str(path), ast.parse(
                    path.read_text(), filename=str(path)), ".".join(parts)))
            except SyntaxError:
                continue
    return trees


def check_dead_knobs(
        repo: Path, allowlist: dict[str, str] | None = None,
) -> list[tuple[str, int, str]]:
    """Whole-tree rule: flag defaulted ``src/`` parameters no non-test
    call passes."""
    return _dead_knob_violations(_parse_non_test_roots(repo), allowlist)


def _dead_knob_violations(trees, allowlist):
    allowlist = DEAD_KNOB_ALLOWLIST if allowlist is None else allowlist
    src_trees = [(path, tree, module) for root, path, tree, module in trees
                 if root == "src"]
    classes = [node for _, tree, _ in src_trees for node in tree.body
               if isinstance(node, ast.ClassDef)]
    bases = {cls.name: [getattr(base, "id", getattr(base, "attr", None))
                        for base in cls.bases] for cls in classes}
    inits = {cls.name for cls in classes for member in cls.body
             if getattr(member, "name", None) == "__init__"}
    calls: dict[tuple, list[ast.Call]] = {}
    for callee, call in _calls(trees, _Scope(trees), bases, inits):
        calls.setdefault(callee, []).append(call)
    owners = list(_knob_owners(src_trees, set(bases)))
    forwards = _Forwards(owners, calls)
    violations: list[tuple[str, int, str]] = []
    defined: set[str] = set()
    for path, prefix, _, fn, skip in owners:
        for param, _, _ in _defaulted_params(fn, skip):
            key = f"{prefix}({param})"
            defined.add(key)
            passed = forwards.passed(fn, param)
            if key in allowlist:
                if passed:
                    violations.append((
                        path, fn.lineno,
                        f"{key!r} is allowlisted as a dead knob but non-test "
                        "code passes it; drop its DEAD_KNOB_ALLOWLIST "
                        "entry"))
            elif not passed:
                violations.append((
                    path, fn.lineno,
                    f"{key!r} has a default no non-test call overrides; "
                    "make it a constant, or allowlist it with a reason"))
    violations += [(__file__, _allowlist_line(key),
                    f"DEAD_KNOB_ALLOWLIST entry {key!r} names no defaulted "
                    "parameter in src/; drop the entry")
                   for key in allowlist if key not in defined]
    return violations


def check_source(path: str, text: str) -> list[tuple[str, int, str]]:
    """Return ``(path, line, message)`` for every rule violation in a file."""
    try:
        tree = ast.parse(text, filename=path)
    except SyntaxError as exc:
        return [(path, exc.lineno or 0, f"cannot parse: {exc.msg}")]

    violations = _check_mutable_defaults(path, tree)
    violations += _check_bare_except(path, tree)
    violations += _check_dangling_all(path, tree)
    parents = Path(path).parents
    if KERNEL_ROOT in parents:
        violations += _check_numpy_random(path, tree)
    if any(root in parents for root in PAD_HELPER_ROOTS):
        violations += _check_no_np_pad(path, tree)
    if Path(path).name.startswith("executors") and path.endswith(".py"):
        violations += _check_executor_view_annotations(path, tree)
    return sorted(violations, key=lambda v: v[1])


def check_tree(root: Path) -> list[tuple[str, int, str]]:
    violations: list[tuple[str, int, str]] = []
    for path in sorted(root.rglob("*.py")):
        violations.extend(check_source(str(path), path.read_text()))
    return violations


def main(argv: list[str] | None = None) -> int:
    roots = [Path(p) for p in (argv if argv is not None else sys.argv[1:])]
    if not roots:
        roots = [SRC_ROOT]
    missing = [r for r in roots if not r.exists()]
    if missing:
        print(f"check_repo_rules: no such directory: {missing[0]}",
              file=sys.stderr)
        return 2
    violations = [v for root in roots for v in check_tree(root)]
    for root in roots:
        if root.resolve().name == "src":
            trees = _parse_non_test_roots(root.parent)
            violations += _test_only_violations(trees, None)
            violations += _dead_knob_violations(trees, None)
    for path, line, message in violations:
        print(f"{path}:{line}: {message}")
    if violations:
        print(f"check_repo_rules: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    checked = sum(1 for root in roots for _ in root.rglob("*.py"))
    print(f"check_repo_rules: {checked} file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
