"""Differentiable operations over :class:`~repro.autograd.variable.Var`.

Forward passes reuse the same vectorized strategies as the inference kernels
(im2col convolutions, einsum depthwise); backwards scatter gradients with
per-offset slice-adds rather than Python pixel loops.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.variable import Var, as_var, unbroadcast
from repro.kernels.common import extract_patches, normalize_stride, resolve_padding

# ------------------------------------------------------------------ arithmetic

def add(a: Var, b: Var) -> Var:
    a, b = as_var(a), as_var(b)
    out = Var(a.data + b.data, a.requires_grad or b.requires_grad, (a, b))

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate_grad(unbroadcast(g, b.shape))
    out._backward_fn = backward
    return out


def sub(a: Var, b: Var) -> Var:
    a, b = as_var(a), as_var(b)
    out = Var(a.data - b.data, a.requires_grad or b.requires_grad, (a, b))

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate_grad(unbroadcast(-g, b.shape))
    out._backward_fn = backward
    return out


def mul(a: Var, b: Var) -> Var:
    a, b = as_var(a), as_var(b)
    out = Var(a.data * b.data, a.requires_grad or b.requires_grad, (a, b))

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b.accumulate_grad(unbroadcast(g * a.data, b.shape))
    out._backward_fn = backward
    return out


def scale(a: Var, s: float) -> Var:
    a = as_var(a)
    out = Var(a.data * s, a.requires_grad, (a,))

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g * s)
    out._backward_fn = backward
    return out


def matmul(a: Var, b: Var) -> Var:
    a, b = as_var(a), as_var(b)
    out = Var(a.data @ b.data, a.requires_grad or b.requires_grad, (a, b))

    def backward(g):
        if a.requires_grad:
            ga = g @ np.swapaxes(b.data, -1, -2)
            a.accumulate_grad(unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = np.swapaxes(a.data, -1, -2) @ g
            b.accumulate_grad(unbroadcast(gb, b.shape))
    out._backward_fn = backward
    return out


# ----------------------------------------------------------------- activations

def relu(x: Var) -> Var:
    x = as_var(x)
    mask = x.data > 0
    out = Var(x.data * mask, x.requires_grad, (x,))

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g * mask)
    out._backward_fn = backward
    return out


def relu6(x: Var) -> Var:
    x = as_var(x)
    mask = (x.data > 0) & (x.data < 6)
    out = Var(np.clip(x.data, 0, 6), x.requires_grad, (x,))

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g * mask)
    out._backward_fn = backward
    return out


def hard_sigmoid(x: Var) -> Var:
    x = as_var(x)
    mask = (x.data > -3) & (x.data < 3)
    out = Var(np.clip(x.data + 3.0, 0, 6) / 6.0, x.requires_grad, (x,))

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g * mask / 6.0)
    out._backward_fn = backward
    return out


def hard_swish(x: Var) -> Var:
    return mul(x, hard_sigmoid(x))


def sigmoid(x: Var) -> Var:
    x = as_var(x)
    s = 1.0 / (1.0 + np.exp(-np.clip(x.data, -30, 30)))
    out = Var(s, x.requires_grad, (x,))

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g * s * (1 - s))
    out._backward_fn = backward
    return out


def tanh(x: Var) -> Var:
    x = as_var(x)
    t = np.tanh(x.data)
    out = Var(t, x.requires_grad, (x,))

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g * (1 - t * t))
    out._backward_fn = backward
    return out


def gelu(x: Var) -> Var:
    x = as_var(x)
    c = np.sqrt(2.0 / np.pi)
    inner = c * (x.data + 0.044715 * x.data**3)
    t = np.tanh(inner)
    out = Var(0.5 * x.data * (1 + t), x.requires_grad, (x,))

    def backward(g):
        if x.requires_grad:
            dinner = c * (1 + 3 * 0.044715 * x.data**2)
            grad = 0.5 * (1 + t) + 0.5 * x.data * (1 - t * t) * dinner
            x.accumulate_grad(g * grad)
    out._backward_fn = backward
    return out


def softmax(x: Var) -> Var:
    """Softmax over the last axis."""
    x = as_var(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    s = ex / ex.sum(axis=-1, keepdims=True)
    out = Var(s, x.requires_grad, (x,))

    def backward(g):
        if x.requires_grad:
            dot = (g * s).sum(axis=-1, keepdims=True)
            x.accumulate_grad(s * (g - dot))
    out._backward_fn = backward
    return out


ACTIVATION_FNS = {
    "linear": lambda v: v,
    "relu": relu,
    "relu6": relu6,
    "hard_sigmoid": hard_sigmoid,
    "hard_swish": hard_swish,
    "sigmoid": sigmoid,
    "tanh": tanh,
    "gelu": gelu,
}


# ----------------------------------------------------------------- convolution

def _col2im(
    dpatches: np.ndarray,
    in_shape: tuple[int, ...],
    kh: int, kw: int, sh: int, sw: int,
    pad: tuple[tuple[int, int], tuple[int, int]],
) -> np.ndarray:
    """Scatter patch gradients (N, oh, ow, kh, kw, C) back to the input."""
    n, h, w, c = in_shape
    (pt, pb), (pl, pr) = pad
    grad = np.zeros((n, h + pt + pb, w + pl + pr, c), dtype=dpatches.dtype)
    oh, ow = dpatches.shape[1], dpatches.shape[2]
    for di in range(kh):  # kernel offsets only: 9 iterations for 3x3
        for dj in range(kw):
            grad[:, di:di + oh * sh:sh, dj:dj + ow * sw:sw, :] += dpatches[:, :, :, di, dj, :]
    return grad[:, pt:pt + h, pl:pl + w, :]


def conv2d(x: Var, w: Var, b: Var | None = None,
           stride: int | tuple[int, int] = 1, padding: str = "same") -> Var:
    x, w = as_var(x), as_var(w)
    kh, kw, cin, cout = w.shape
    sh, sw = normalize_stride(stride)
    pad = resolve_padding(padding, x.shape[1], x.shape[2], kh, kw, sh, sw)
    patches = extract_patches(x.data, kh, kw, sh, sw, pad)
    n, oh, ow = patches.shape[:3]
    cols = patches.reshape(n * oh * ow, kh * kw * cin)
    data = (cols @ w.data.reshape(kh * kw * cin, cout)).reshape(n, oh, ow, cout)
    if b is not None:
        data = data + b.data
    parents = (x, w) if b is None else (x, w, b)
    out = Var(data, any(p.requires_grad for p in parents), parents)

    def backward(g):
        gcols = g.reshape(n * oh * ow, cout)
        if w.requires_grad:
            gw = cols.T @ gcols
            w.accumulate_grad(gw.reshape(w.shape))
        if b is not None and b.requires_grad:
            b.accumulate_grad(gcols.sum(axis=0))
        if x.requires_grad:
            dpatch = (gcols @ w.data.reshape(kh * kw * cin, cout).T)
            dpatch = dpatch.reshape(n, oh, ow, kh, kw, cin)
            x.accumulate_grad(_col2im(dpatch, x.shape, kh, kw, sh, sw, pad))
    out._backward_fn = backward
    return out


def depthwise_conv2d(x: Var, w: Var, stride: int | tuple[int, int] = 1,
                     padding: str = "same") -> Var:
    """Bias-free depthwise conv; the DSL always follows it with batch norm."""
    x, w = as_var(x), as_var(w)
    kh, kw, c, mult = w.shape
    sh, sw = normalize_stride(stride)
    pad = resolve_padding(padding, x.shape[1], x.shape[2], kh, kw, sh, sw)
    patches = extract_patches(x.data, kh, kw, sh, sw, pad)  # (N,oh,ow,kh,kw,C)
    acc = np.einsum("nhwklc,klcm->nhwcm", patches, w.data, optimize=True)
    n, oh, ow = acc.shape[:3]
    data = acc.reshape(n, oh, ow, c * mult)
    out = Var(data, x.requires_grad or w.requires_grad, (x, w))

    def backward(g):
        g5 = g.reshape(n, oh, ow, c, mult)
        if w.requires_grad:
            gw = np.einsum("nhwklc,nhwcm->klcm", patches, g5, optimize=True)
            w.accumulate_grad(gw)
        if x.requires_grad:
            dpatch = np.einsum("nhwcm,klcm->nhwklc", g5, w.data, optimize=True)
            x.accumulate_grad(_col2im(dpatch, x.shape, kh, kw, sh, sw, pad))
    out._backward_fn = backward
    return out


def dense(x: Var, w: Var, b: Var | None = None) -> Var:
    out = matmul(x, w)
    if b is not None:
        out = add(out, b)
    return out


# --------------------------------------------------------------------- pooling

def avg_pool2d(x: Var, pool_size: int | tuple[int, int] = 2,
               stride: int | tuple[int, int] | None = None,
               padding: str = "valid") -> Var:
    x = as_var(x)
    kh, kw = normalize_stride(pool_size)
    sh, sw = normalize_stride(stride if stride is not None else (kh, kw))
    pad = resolve_padding(padding, x.shape[1], x.shape[2], kh, kw, sh, sw)
    patches = extract_patches(x.data, kh, kw, sh, sw, pad)
    ones = np.ones((1,) + x.shape[1:3] + (1,), dtype=np.float32)
    counts = extract_patches(ones, kh, kw, sh, sw, pad).sum(axis=(3, 4))[0, :, :, 0]
    data = patches.sum(axis=(3, 4)) / counts[None, :, :, None]
    out = Var(data, x.requires_grad, (x,))
    n, oh, ow, c = data.shape

    def backward(g):
        if x.requires_grad:
            gdist = (g / counts[None, :, :, None])[:, :, :, None, None, :]
            dpatch = np.broadcast_to(gdist, (n, oh, ow, kh, kw, c)).astype(np.float32)
            x.accumulate_grad(_col2im(dpatch, x.shape, kh, kw, sh, sw, pad))
    out._backward_fn = backward
    return out


def global_avg_pool(x: Var) -> Var:
    """(N, H, W, C) -> (N, C) spatial mean."""
    x = as_var(x)
    data = x.data.mean(axis=(1, 2))
    out = Var(data, x.requires_grad, (x,))
    n, h, w, c = x.shape

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(np.broadcast_to(
                g[:, None, None, :] / (h * w), x.shape).astype(np.float32))
    out._backward_fn = backward
    return out


# --------------------------------------------------------------- shape/structure

def reshape(x: Var, shape: tuple[int, ...]) -> Var:
    x = as_var(x)
    out = Var(x.data.reshape(shape), x.requires_grad, (x,))

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g.reshape(x.shape))
    out._backward_fn = backward
    return out


def flatten(x: Var) -> Var:
    return reshape(x, (x.shape[0], -1))


def concat(vars_: list[Var]) -> Var:
    """Concatenate along the last (channel) axis."""
    vars_ = [as_var(v) for v in vars_]
    data = np.concatenate([v.data for v in vars_], axis=-1)
    out = Var(data, any(v.requires_grad for v in vars_), tuple(vars_))
    offsets = np.cumsum([0] + [v.shape[-1] for v in vars_])

    def backward(g):
        for v, lo, hi in zip(vars_, offsets[:-1], offsets[1:]):
            if v.requires_grad:
                v.accumulate_grad(g[..., lo:hi])
    out._backward_fn = backward
    return out


def slice_channels(x: Var, lo: int, hi: int) -> Var:
    """Slice the last axis to [lo, hi) (splitting fused detector heads)."""
    x = as_var(x)
    out = Var(x.data[..., lo:hi], x.requires_grad, (x,))

    def backward(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            gx[..., lo:hi] = g
            x.accumulate_grad(gx)
    out._backward_fn = backward
    return out


def mean_axis(x: Var, axis: int) -> Var:
    x = as_var(x)
    data = x.data.mean(axis=axis)
    out = Var(data, x.requires_grad, (x,))
    n = x.shape[axis]

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(np.repeat(np.expand_dims(g / n, axis), n, axis=axis))
    out._backward_fn = backward
    return out


def embedding(table: Var, ids: np.ndarray) -> Var:
    table = as_var(table)
    ids = np.asarray(ids)
    out = Var(table.data[ids], table.requires_grad, (table,))

    def backward(g):
        if table.requires_grad:
            gt = np.zeros_like(table.data)
            np.add.at(gt, ids, g)
            table.accumulate_grad(gt)
    out._backward_fn = backward
    return out


# -------------------------------------------------------------- normalization

def batch_norm_train(
    x: Var, gamma: Var, beta: Var,
    running: dict[str, np.ndarray],
) -> Var:
    """Training-mode batch norm over the channel (last) axis.

    Updates ``running["mean"]`` / ``running["variance"]`` in place as a side
    effect (momentum 0.9); those statistics are what the exported checkpoint
    graph carries.
    """
    momentum, eps = 0.9, 1e-3
    x, gamma, beta = as_var(x), as_var(gamma), as_var(beta)
    axes = tuple(range(x.ndim - 1))
    m = x.data.mean(axis=axes)
    v = x.data.var(axis=axes)
    count = x.data.size // x.shape[-1]
    running["mean"] = momentum * running["mean"] + (1 - momentum) * m
    running["variance"] = momentum * running["variance"] + (1 - momentum) * v

    inv = 1.0 / np.sqrt(v + eps)
    xhat = (x.data - m) * inv
    out = Var(xhat * gamma.data + beta.data,
              x.requires_grad or gamma.requires_grad or beta.requires_grad,
              (x, gamma, beta))

    def backward(g):
        if gamma.requires_grad:
            gamma.accumulate_grad((g * xhat).sum(axis=axes))
        if beta.requires_grad:
            beta.accumulate_grad(g.sum(axis=axes))
        if x.requires_grad:
            gx_hat = g * gamma.data
            term1 = gx_hat
            term2 = gx_hat.mean(axis=axes)
            term3 = xhat * (gx_hat * xhat).mean(axis=axes)
            x.accumulate_grad(inv * (term1 - term2 - term3))
    out._backward_fn = backward
    return out


def layer_norm(x: Var, gamma: Var, beta: Var) -> Var:
    x, gamma, beta = as_var(x), as_var(gamma), as_var(beta)
    m = x.data.mean(axis=-1, keepdims=True)
    v = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(v + 1e-6)
    xhat = (x.data - m) * inv
    out = Var(xhat * gamma.data + beta.data,
              x.requires_grad or gamma.requires_grad or beta.requires_grad,
              (x, gamma, beta))
    d = x.shape[-1]

    def backward(g):
        if gamma.requires_grad:
            gamma.accumulate_grad(
                (g * xhat).sum(axis=tuple(range(x.ndim - 1))))
        if beta.requires_grad:
            beta.accumulate_grad(g.sum(axis=tuple(range(x.ndim - 1))))
        if x.requires_grad:
            gx_hat = g * gamma.data
            term2 = gx_hat.mean(axis=-1, keepdims=True)
            term3 = xhat * (gx_hat * xhat).mean(axis=-1, keepdims=True)
            x.accumulate_grad(inv * (gx_hat - term2 - term3))
    out._backward_fn = backward
    return out
