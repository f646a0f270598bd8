"""Executor annotations: contracts the runtime may exploit, never trust.

Executors are plain ``(node, inputs, ctx) -> ndarray`` callables; this
decorator attaches a capability flag the plan compiler reads into
:class:`~repro.runtime.plan.NodeBinding`:

* :func:`aliases_input` — the executor returns a numpy *view* of one of
  its inputs (reshape/flatten/channel_reverse, the ops of
  :data:`~repro.analysis.liveness.VIEW_OPS`). Under the one alias rule,
  :func:`~repro.analysis.liveness.packable_aliases`, the plan's static
  activation peak charges the shared buffer once and the arena packer
  (:func:`~repro.analysis.arena.pack_arena`) may merge the output into its
  input's slot — but only after :func:`~repro.analysis.arena.verify_layout`
  re-proves the aliasing from the graph. The flag is an eligibility hint,
  never a proof: a copying kernel bound to a view op leaves it unset and
  gets a buffer of its own.

``tools/check_repo_rules.py`` enforces that view-returning executors carry
``aliases_input``.
"""

from __future__ import annotations

from typing import Callable, TypeVar

F = TypeVar("F", bound=Callable)


def aliases_input(fn: F) -> F:
    """Mark an executor as returning a view of (one of) its inputs."""
    fn.aliases_input = True
    return fn


__all__ = ["aliases_input"]
