"""Reverse-mode automatic differentiation over numpy arrays.

This is the training substrate: the paper's models are pretrained TF models,
which do not exist offline, so the zoo trains micro versions from scratch.
Only the features those trainings need are implemented — a deliberate,
small, well-tested core (see tests/test_autograd_* including numerical
gradient checks).
"""

from __future__ import annotations

import numpy as np


class Var:
    """A tensor in the autodiff graph.

    Attributes
    ----------
    data:
        The value (numpy array, float32 by convention).
    grad:
        Accumulated gradient (same shape as ``data``), populated by
        :meth:`backward`.
    requires_grad:
        Whether gradients flow into this variable.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "name")

    def __init__(
        self,
        data: np.ndarray,
        requires_grad: bool = False,
        parents: tuple["Var", ...] = (),
        backward_fn=None,
        name: str | None = None,
    ):
        self.data = np.asarray(data, dtype=np.float32)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward_fn = backward_fn
        self.name = name

    # ----------------------------------------------------------- properties
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add ``g`` into this variable's gradient buffer."""
        g = np.asarray(g, dtype=np.float32)
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad += g

    # ------------------------------------------------------------- backward
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this variable through the recorded graph."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without grad requires a scalar output")
            grad = np.ones_like(self.data)
        # Iterative topological order (recursion would overflow on deep nets).
        topo: list[Var] = []
        visited: set[int] = set()
        stack: list[tuple[Var, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self.accumulate_grad(grad)
        for node in reversed(topo):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" name={self.name!r}" if self.name else ""
        return f"Var(shape={self.shape}, requires_grad={self.requires_grad}{tag})"


def as_var(x) -> Var:
    """Coerce arrays/scalars to constant Vars; pass Vars through."""
    return x if isinstance(x, Var) else Var(np.asarray(x, dtype=np.float32))


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcasted gradient back to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad
