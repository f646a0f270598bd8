"""Op resolvers: which kernel implementation executes each node.

Mirrors TFLite's design (§4.4): one float kernel set, and two int8 kernel
sets on the paper's reference-vs-optimized axis.

* :class:`OpResolver` — the builtin resolver invoking **optimized kernels**
  (the production path);
* :class:`ReferenceOpResolver` — the builtin resolver invoking **reference
  kernels** (the debugging path, drastically slower on-device);
* custom resolvers — "advanced users have the option to create their own
  OpResolver which could invoke their custom ops and kernels": construct a
  resolver, call :meth:`BaseOpResolver.register`, and pass it as
  ``resolver=`` to :class:`~repro.runtime.interpreter.Interpreter` or
  :class:`~repro.pipelines.edge.EdgeApp`.

:data:`RESOLVERS` maps backend names to factories. ``"batched"`` stays in it
as an alias of :class:`OpResolver`: the batched backend's whole-batch
kernels are now the optimized kernels, and existing sweep lineups and shard
manifests still name it.

Builtin resolvers accept a :class:`~repro.kernels.quantized.bugs.KernelBugs`
configuration; the paper-era TFLite behaviour is obtained with
``OpResolver(bugs=PAPER_OPTIMIZED_BUGS)`` /
``ReferenceOpResolver(bugs=PAPER_REFERENCE_BUGS)``.
"""

from __future__ import annotations

from collections.abc import Callable
from types import ModuleType

import numpy as np

from repro.graph.node import Node
from repro.kernels.quantized import optimized as _qopt
from repro.kernels.quantized import reference as _qref
from repro.kernels.quantized.bugs import (
    NO_BUGS,
    PAPER_OPTIMIZED_BUGS,
    PAPER_REFERENCE_BUGS,
    KernelBugs,
)
from repro.runtime.executors_float import FLOAT_EXECUTORS
from repro.runtime.executors_quant import QUANT_EXECUTORS
from repro.util.errors import GraphError, ValidationError, did_you_mean

Executor = Callable[[Node, list[np.ndarray], "object"], np.ndarray]

KERNEL_BUG_PRESETS: dict[str, KernelBugs] = {
    "none": NO_BUGS,
    "paper-optimized": PAPER_OPTIMIZED_BUGS,
    "paper-reference": PAPER_REFERENCE_BUGS,
}
"""Named kernel-bug configurations selectable from the CLI and sweeps."""


class BaseOpResolver:
    """Maps (op type, quantized?) to an executor function.

    Attributes
    ----------
    kind:
        "optimized", "reference", or "custom" — consumed by the
        performance model, which charges reference kernels their on-device
        slowdown (Table 4) and every other kind the optimized coefficients.
    bugs:
        Kernel-bug injection flags threaded into quantized kernels.
    version:
        Bumped on every :meth:`register`; compiled execution plans compare
        it against the version they were built from to detect staleness.
    """

    kind: str = "custom"

    def __init__(self, bugs: KernelBugs = NO_BUGS, qkernels: ModuleType = _qopt):
        self.bugs = bugs
        self.qkernels = qkernels
        self.version = 0
        self._registry: dict[tuple[str, bool], Executor] = {}
        for op, fn in FLOAT_EXECUTORS.items():
            self._registry[(op, False)] = fn
        for op, fn in QUANT_EXECUTORS.items():
            self._registry[(op, True)] = fn
        # quantize/dequantize bridge nodes appear in otherwise-float regions.
        self._registry[("quantize", False)] = QUANT_EXECUTORS["quantize"]
        self._registry[("dequantize", False)] = QUANT_EXECUTORS["dequantize"]

    def register(self, op: str, quantized: bool, fn: Executor) -> None:
        """Register (or override) the executor for an op — the custom-op hook."""
        self._registry[(op, quantized)] = fn
        self.version += 1

    def lookup(self, op: str, quantized: bool) -> Executor:
        """Find the executor for an op, or raise :class:`GraphError`."""
        try:
            return self._registry[(op, quantized)]
        except KeyError:
            mode = "quantized" if quantized else "float"
            raise GraphError(
                f"resolver {type(self).__name__} has no {mode} kernel for op {op!r}"
            ) from None


class OpResolver(BaseOpResolver):
    """Builtin resolver invoking optimized (production) kernels."""

    kind = "optimized"

    def __init__(self, bugs: KernelBugs = NO_BUGS):
        super().__init__(bugs=bugs, qkernels=_qopt)


class ReferenceOpResolver(BaseOpResolver):
    """Builtin resolver invoking reference (debugging) kernels."""

    kind = "reference"

    def __init__(self, bugs: KernelBugs = NO_BUGS):
        super().__init__(bugs=bugs, qkernels=_qref)


ResolverFactory = Callable[..., BaseOpResolver]
"""``factory(bugs=KernelBugs) -> BaseOpResolver``."""

RESOLVERS: dict[str, ResolverFactory] = {
    "optimized": OpResolver,
    "reference": ReferenceOpResolver,
    # The batched backend's kernels became the optimized kernels; lineups
    # and shard manifests that name it still resolve.
    "batched": OpResolver,
}
"""Named kernel backends (name -> factory).

The registry is the single source of truth for which backend names are
valid: :func:`make_resolver`, the CLI ``--resolver``/``--backends``
choices, and sweep variant validation all consult it.
"""


def make_resolver(kind: str, kernel_bugs: str = "none") -> BaseOpResolver:
    """Build a registered backend by name, with a named kernel-bug preset."""
    try:
        bugs = KERNEL_BUG_PRESETS[kernel_bugs]
    except KeyError:
        raise ValidationError(
            f"unknown kernel-bug preset {kernel_bugs!r}"
            f"{did_you_mean(kernel_bugs, KERNEL_BUG_PRESETS)}; "
            f"available: {sorted(KERNEL_BUG_PRESETS)}"
        ) from None
    try:
        factory = RESOLVERS[kind]
    except KeyError:
        raise ValidationError(
            f"unknown resolver kind {kind!r}"
            f"{did_you_mean(kind, RESOLVERS)}; "
            f"available: {sorted(RESOLVERS)}"
        ) from None
    return factory(bugs=bugs)
