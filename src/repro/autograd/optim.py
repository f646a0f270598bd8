"""The optimizer over named parameter dictionaries."""

from __future__ import annotations

import numpy as np

from repro.autograd.variable import Var


class Adam:
    """Adam with bias correction over a ``{name: Var}`` parameter dict —
    the optimizer of every zoo training."""

    def __init__(self, params: dict[str, Var], lr: float = 3e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in params.items()}
        self._t = 0

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self) -> None:
        self._t += 1
        b1t = 1 - self.beta1**self._t
        b2t = 1 - self.beta2**self._t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            m, v = self._m[name], self._v[name]
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * g * g
            p.data -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)
