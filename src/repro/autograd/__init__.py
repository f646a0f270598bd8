"""Minimal reverse-mode autodiff used to train the model zoo from scratch."""

from repro.autograd import ops
from repro.autograd.losses import mse, softmax_cross_entropy
from repro.autograd.optim import Adam
from repro.autograd.variable import Var, as_var, unbroadcast

__all__ = [
    "Adam",
    "Var",
    "as_var",
    "mse",
    "ops",
    "softmax_cross_entropy",
    "unbroadcast",
]
