"""Backends interpreting the architecture DSL.

``TrainBackend`` runs the spec with autograd Vars (lazy parameter creation,
training-mode batch norm). ``ExportBackend`` replays the spec into a
:class:`~repro.graph.graph.GraphBuilder`, emitting the *checkpoint* graph —
explicit batch_norm and activation nodes, un-fused, exactly what a training
framework would hand to a converter.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Var, ops
from repro.graph.graph import GraphBuilder
from repro.kernels.common import same_padding
from repro.util.errors import GraphError
from repro.util.rng import derive_rng


class ParamStore:
    """Lazily-initialized named parameters for training."""

    def __init__(self, seed: int):
        self.seed = seed
        self.params: dict[str, Var] = {}
        self.state: dict[str, dict[str, np.ndarray]] = {}

    def get(self, name: str, shape: tuple[int, ...], init: str = "he") -> Var:
        """Fetch (or create) a trainable parameter."""
        if name in self.params:
            var = self.params[name]
            if var.shape != tuple(shape):
                raise GraphError(
                    f"param {name!r} shape {var.shape} != requested {shape}"
                )
            return var
        rng = derive_rng(self.seed, "param", name)
        if init == "he":
            fan_in = int(np.prod(shape[:-1])) or 1
            data = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)
        elif init == "xavier":
            fan_in = int(np.prod(shape[:-1])) or 1
            fan_out = shape[-1]
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            data = rng.uniform(-bound, bound, size=shape)
        elif init == "zeros":
            data = np.zeros(shape)
        elif init == "ones":
            data = np.ones(shape)
        elif init == "embedding":
            data = rng.normal(0.0, 0.5, size=shape)
        else:
            raise GraphError(f"unknown init {init!r}")
        var = Var(data.astype(np.float32), requires_grad=True, name=name)
        self.params[name] = var
        return var

    def bn_state(self, name: str, channels: int) -> dict[str, np.ndarray]:
        """Fetch (or create) batch-norm running statistics."""
        if name not in self.state:
            self.state[name] = {
                "mean": np.zeros(channels, dtype=np.float32),
                "variance": np.ones(channels, dtype=np.float32),
            }
        return self.state[name]

    def export_arrays(self) -> dict[str, np.ndarray]:
        """Snapshot parameters as plain arrays (for caching / export)."""
        return {k: v.data.copy() for k, v in self.params.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Restore parameters from :meth:`export_arrays` output."""
        for name, data in arrays.items():
            self.params[name] = Var(data, requires_grad=True, name=name)


class TrainBackend:
    """DSL backend producing autograd Vars (training / float evaluation)."""

    def __init__(self, store: ParamStore, training: bool = True):
        self.store = store
        self.training = training

    # --------------------------------------------------------------- helpers
    def channels_of(self, x: Var) -> int:
        return int(x.shape[-1])

    def pad_for(self, x: Var, name: str, k: int, stride: int) -> Var:
        ph = same_padding(x.shape[1], k, stride)
        pw = same_padding(x.shape[2], k, stride)
        data = np.pad(x.data, ((0, 0), ph, pw, (0, 0)))
        out = Var(data, x.requires_grad, (x,))

        def backward(g):
            if x.requires_grad:
                x.accumulate_grad(
                    g[:, ph[0]:ph[0] + x.shape[1], pw[0]:pw[0] + x.shape[2], :])
        out._backward_fn = backward
        return out

    # ------------------------------------------------------------------- ops
    def conv(self, x, name, out_ch, k, stride, padding, use_bias):
        w = self.store.get(f"{name}.w", (k, k, self.channels_of(x), out_ch))
        b = self.store.get(f"{name}.b", (out_ch,), "zeros") if use_bias else None
        return ops.conv2d(x, w, b, stride=stride, padding=padding)

    def dwconv(self, x, name, k, stride, padding):
        w = self.store.get(f"{name}.w", (k, k, self.channels_of(x), 1))
        return ops.depthwise_conv2d(x, w, stride=stride, padding=padding)

    def dense(self, x, name, units):
        w = self.store.get(f"{name}.w", (self.channels_of(x), units), "xavier")
        b = self.store.get(f"{name}.b", (units,), "zeros")
        return ops.dense(x, w, b)

    def batch_norm(self, x, name):
        c = self.channels_of(x)
        gamma = self.store.get(f"{name}.gamma", (c,), "ones")
        beta = self.store.get(f"{name}.beta", (c,), "zeros")
        running = self.store.bn_state(name, c)
        if self.training:
            return ops.batch_norm_train(x, gamma, beta, running)
        inv = 1.0 / np.sqrt(running["variance"] + 1e-3)
        scale = Var(gamma.data * inv)
        shift = Var(beta.data - running["mean"] * inv * gamma.data)
        return ops.add(ops.mul(x, scale), shift)

    def act(self, x, name, fn):
        return ops.ACTIVATION_FNS[fn](x)

    def softmax(self, x, name):
        return ops.softmax(x)

    def gap(self, x, name):
        return ops.global_avg_pool(x)

    def flatten(self, x, name):
        return ops.flatten(x)

    def avgpool(self, x, name, pool, stride, padding):
        return ops.avg_pool2d(x, pool, stride, padding)

    def avgpool_full(self, x, name):
        return ops.avg_pool2d(x, (int(x.shape[1]), int(x.shape[2])))

    def add(self, a, b, name):
        return ops.add(a, b)

    def mul(self, a, b, name):
        return ops.mul(a, b)

    def concat(self, xs, name):
        return ops.concat(xs)

    def resize_nearest(self, x, name, out_h, out_w):
        n, h, w, c = x.shape
        rows = (np.arange(out_h) * h // out_h).clip(0, h - 1)
        cols = (np.arange(out_w) * w // out_w).clip(0, w - 1)
        data = x.data[:, rows][:, :, cols]
        out = Var(data, x.requires_grad, (x,))

        def backward(g):
            if x.requires_grad:
                gx = np.zeros_like(x.data)
                np.add.at(gx, np.ix_(np.arange(n), rows, cols, np.arange(c)), g)
                x.accumulate_grad(gx)
        out._backward_fn = backward
        return out

    def embedding(self, ids, name, vocab, dim):
        table = self.store.get(f"{name}.table", (vocab, dim), "embedding")
        if isinstance(ids, Var):
            ids = ids.data
        return ops.embedding(table, np.asarray(ids).astype(np.int64))

    def attention(self, x, name, num_heads):
        d = self.channels_of(x)
        wq = self.store.get(f"{name}.wq", (d, d), "xavier")
        wk = self.store.get(f"{name}.wk", (d, d), "xavier")
        wv = self.store.get(f"{name}.wv", (d, d), "xavier")
        wo = self.store.get(f"{name}.wo", (d, d), "xavier")
        bq = self.store.get(f"{name}.bq", (d,), "zeros")
        bk = self.store.get(f"{name}.bk", (d,), "zeros")
        bv = self.store.get(f"{name}.bv", (d,), "zeros")
        bo = self.store.get(f"{name}.bo", (d,), "zeros")
        batch, seq, _ = x.shape
        dh = d // num_heads

        def heads(v):
            v = ops.reshape(v, (batch, seq, num_heads, dh))
            return _transpose(v, (0, 2, 1, 3))

        q = heads(ops.dense(x, wq, bq))
        k = heads(ops.dense(x, wk, bk))
        v = heads(ops.dense(x, wv, bv))
        scores = ops.scale(ops.matmul(q, _transpose(k, (0, 1, 3, 2))),
                           1.0 / np.sqrt(dh))
        weights = ops.softmax(scores)
        attended = ops.matmul(weights, v)
        merged = ops.reshape(_transpose(attended, (0, 2, 1, 3)), (batch, seq, d))
        return ops.dense(merged, wo, bo)

    def layer_norm(self, x, name):
        d = self.channels_of(x)
        gamma = self.store.get(f"{name}.gamma", (d,), "ones")
        beta = self.store.get(f"{name}.beta", (d,), "zeros")
        return ops.layer_norm(x, gamma, beta)

    def mean_seq(self, x, name):
        return ops.mean_axis(x, axis=1)

    def image_normalize(self, x, name, scale, offset):
        return ops.add(ops.scale(x, scale), Var(np.float32(offset)))


def _transpose(x: Var, axes: tuple[int, ...]) -> Var:
    out = Var(np.ascontiguousarray(x.data.transpose(axes)), x.requires_grad, (x,))
    inverse = tuple(np.argsort(axes))

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g.transpose(inverse))
    out._backward_fn = backward
    return out


class ExportBackend:
    """DSL backend emitting the checkpoint graph from trained parameters."""

    def __init__(self, builder: GraphBuilder, params: dict[str, np.ndarray],
                 state: dict[str, dict[str, np.ndarray]]):
        self.builder = builder
        self.params = params
        self.state = state

    def _param(self, name: str) -> np.ndarray:
        try:
            return self.params[name]
        except KeyError:
            raise GraphError(f"export missing trained parameter {name!r}") from None

    def channels_of(self, x: str) -> int:
        return int(self.builder._tensors[x].shape[-1])

    def _spatial_of(self, x: str) -> tuple[int, int]:
        shape = self.builder._tensors[x].shape
        return int(shape[1]), int(shape[2])

    def pad_for(self, x, name, k, stride):
        h, w = self._spatial_of(x)
        paddings = (same_padding(h, k, stride), same_padding(w, k, stride))
        return self.builder.add("pad2d", x, name=name,
                                attrs={"paddings": paddings, "value": 0.0})

    def conv(self, x, name, out_ch, k, stride, padding, use_bias):
        bias = self._param(f"{name}.b") if use_bias else None
        return self.builder.conv2d(x, self._param(f"{name}.w"), bias,
                                   stride=stride, padding=padding, name=name)

    def dwconv(self, x, name, k, stride, padding):
        return self.builder.depthwise_conv2d(x, self._param(f"{name}.w"),
                                             stride=stride, padding=padding,
                                             name=name)

    def dense(self, x, name, units):
        return self.builder.dense(x, self._param(f"{name}.w"),
                                  self._param(f"{name}.b"), name=name)

    def batch_norm(self, x, name):
        st = self.state[name]
        return self.builder.batch_norm(
            x, st["mean"], st["variance"],
            self._param(f"{name}.gamma"), self._param(f"{name}.beta"),
            name=name,
        )

    def act(self, x, name, fn):
        return self.builder.activation(x, fn, name=name)

    def softmax(self, x, name):
        return self.builder.softmax(x, name=name)

    def gap(self, x, name):
        return self.builder.global_avg_pool(x, name=name)

    def flatten(self, x, name):
        return self.builder.add("flatten", x, name=name)

    def avgpool(self, x, name, pool, stride, padding):
        return self.builder.add("avg_pool2d", x, name=name, attrs={
            "pool_size": pool, "stride": stride if stride else pool,
            "padding": padding,
        })

    def avgpool_full(self, x, name):
        h, w = self._spatial_of(x)
        return self.builder.add("avg_pool2d", x, name=name, attrs={
            "pool_size": (h, w), "stride": (h, w), "padding": "valid",
        })

    def add(self, a, b, name):
        return self.builder.add_tensors(a, b, name=name)

    def mul(self, a, b, name):
        return self.builder.mul_tensors(a, b, name=name)

    def concat(self, xs, name):
        return self.builder.add("concat", list(xs), name=name, attrs={"axis": -1})

    def resize_nearest(self, x, name, out_h, out_w):
        return self.builder.add("resize_nearest", x, name=name,
                                attrs={"out_h": out_h, "out_w": out_w})

    def embedding(self, ids, name, vocab, dim):
        return self.builder.add("embedding", ids, name=name,
                                weights={"table": self._param(f"{name}.table")})

    def attention(self, x, name, num_heads):
        weights = {
            key: self._param(f"{name}.{key}")
            for key in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")
        }
        return self.builder.add("self_attention", x, name=name,
                                attrs={"num_heads": num_heads}, weights=weights)

    def layer_norm(self, x, name):
        return self.builder.add("layer_norm", x, name=name, weights={
            "gamma": self._param(f"{name}.gamma"),
            "beta": self._param(f"{name}.beta"),
        })

    def mean_seq(self, x, name):
        return self.builder.add("reduce_mean_seq", x, name=name)

    def image_normalize(self, x, name, scale, offset):
        return self.builder.add("image_normalize", x, name=name,
                                attrs={"scale": scale, "offset": offset})
