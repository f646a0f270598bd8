#!/usr/bin/env python3
"""Repo-level AST lint: conventions the test suite can't see.

Seven rules:

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
  its own body counts. Classes deriving from a stdlib or third-party base
  are skipped, since their methods may be hooks the base calls. Decorated
  definitions are exempt (registries such as ``@register_rule`` call
  them); :data:`TEST_ONLY_ALLOWLIST` names the few kept on purpose
  (methods as ``Class.method``), and an entry that is no longer defined
  or has gained a caller is itself a violation, so the list cannot rot.

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
    "register_resolver": "the paper's custom-OpResolver hook, documented "
                         "in README \"Kernel backends\"",
    "rule_catalog": "the README library surface, and the source the "
                    "README rule-table sync test reads",
    "BaseOpResolver.register": "the paper's custom-op hook, documented in "
                               "README \"Kernel backends\"",
    "EdgeMLMonitor.detach": "the inverse of attach(); the only way to stop "
                            "a monitor observing a long-lived interpreter",
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


def _references(tree: ast.Module):
    """Yield ``(name, statement, member)`` for each ``Name``/``Attribute``
    load: the module-body statement it sits in and, inside a class body,
    the class-body statement (else ``None``)."""
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            scopes = [(member, member) for member in stmt.body]
            scopes += [(node, None) for node in (
                *stmt.bases, *stmt.keywords, *stmt.decorator_list)]
        else:
            scopes = [(stmt, None)]
        for scope, member in scopes:
            for node in ast.walk(scope):
                if isinstance(node, ast.Name) and isinstance(node.ctx,
                                                             ast.Load):
                    yield node.id, stmt, member
                elif (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Load)):
                    yield node.attr, stmt, member


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
    allowlist = TEST_ONLY_ALLOWLIST if allowlist is None else allowlist
    src_trees: list[tuple[str, ast.Module]] = []
    callers: dict[str, list[tuple[ast.stmt, ast.stmt | None]]] = {}
    for root in NON_TEST_ROOTS:
        for path in sorted((repo / root).rglob("*.py")):
            try:
                tree = ast.parse(path.read_text(), filename=str(path))
            except SyntaxError:
                continue  # check_source reports it
            if root == "src":
                src_trees.append((str(path), tree))
            for name, stmt, member in _references(tree):
                callers.setdefault(name, []).append((stmt, member))
    src_classes = {node.name for _, tree in src_trees for node in tree.body
                   if isinstance(node, ast.ClassDef)}
    # (path, allowlist key, referenced name, node, is a class member)
    definitions: list[tuple[str, str, str, ast.AST, bool]] = []
    for path, tree in src_trees:
        definitions += [(path, name, name, node, False)
                        for name, node in _top_level_definitions(tree)]
        definitions += [(path, key, name, node, True)
                        for key, name, node in _public_methods(tree,
                                                               src_classes)]
    violations: list[tuple[str, int, str]] = []
    defined: set[str] = set()
    for path, key, name, node, is_member in definitions:
        defined.add(key)
        used = any((member if is_member else stmt) is not node
                   for stmt, member in callers.get(name, ()))
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
    violations += [v for root in roots if root.resolve().name == "src"
                   for v in check_test_only_definitions(root.parent)]
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
