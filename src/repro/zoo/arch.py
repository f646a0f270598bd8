"""Architecture DSL: one declarative spec drives training *and* graph export.

Each zoo model is a list of :class:`Layer` specs. The same spec is
interpreted twice by :func:`run_arch`:

* with a :class:`~repro.zoo.backends.TrainBackend` — values are autograd
  Vars, batch norm runs in training mode, parameters are created lazily;
* with an :class:`~repro.zoo.backends.ExportBackend` — values are tensor
  names in a :class:`~repro.graph.graph.GraphBuilder`, producing the
  *checkpoint* graph with explicit batch-norm and activation nodes (exactly
  what the mobile converter is supposed to fold/fuse).

This guarantees the deployed graph computes the same function the training
loop optimized, which is the property the paper's reference pipelines rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Layer:
    """One architecture element.

    ``kind`` selects the interpreter rule; ``attrs`` carries hyperparameters;
    ``body`` / ``branches`` hold sub-architectures for composite kinds
    (residual, se, inception, dense_block, transformer).
    """

    kind: str
    name: str
    attrs: dict = field(default_factory=dict)
    body: list["Layer"] | None = None
    branches: list[list["Layer"]] | None = None


# ------------------------------------------------------------- spec builders

def conv(name: str, out_ch: int, k: int = 3, stride: int = 1,
         act: str = "relu6", bn: bool = True) -> Layer:
    """Conv2D, "same" padding (+BN unless ``bn=False``) (+activation unless
    ``act='linear'``)."""
    return Layer("conv", name, {
        "out_ch": out_ch, "k": k, "stride": stride, "act": act, "bn": bn,
    })


def dwconv(name: str, stride: int = 1, act: str = "relu6") -> Layer:
    """3x3 DepthwiseConv2D, "same" padding, + BN (+activation). A strided
    layer exports its padding as its own Pad op (the Table 4 "Pad" rows)."""
    return Layer("dwconv", name, {"stride": stride, "act": act})


def dense(name: str, units: int, act: str = "linear") -> Layer:
    return Layer("dense", name, {"units": units, "act": act})


def gap() -> Layer:
    """Global average pool to (N, C), exported as a ``Mean`` op."""
    return Layer("gap", "gap")


def flatten(name: str = "flatten") -> Layer:
    return Layer("flatten", name)


def softmax(name: str = "probs") -> Layer:
    return Layer("softmax", name)


def act(name: str, fn: str) -> Layer:
    return Layer("act", name, {"fn": fn})


def avgpool(name: str, pool: int = 2, stride: int | None = None,
            padding: str = "valid") -> Layer:
    return Layer("avgpool", name, {"pool": pool, "stride": stride, "padding": padding})


def avgpool_full(name: str) -> Layer:
    """Full-extent AveragePool2D: (N,H,W,C) -> (N,1,1,C).

    Semantically a global mean, but exported as an ``avg_pool2d`` op rather
    than ``Mean`` — the distinction that decides which models the paper's
    reference-kernel bug reaches (MobileNet v3's SE and head pools).
    """
    return Layer("avgpool_full", name)


def residual(name: str, body: list[Layer],
             shortcut: list[Layer] | None = None) -> Layer:
    """x -> body(x) + (shortcut(x) if given else x)."""
    return Layer("residual", name, {}, body=body,
                 branches=[shortcut] if shortcut else None)


def se_block(name: str) -> Layer:
    """Squeeze-and-excite: GAP -> 1x1 relu -> 1x1 hard_sigmoid -> gate.

    The average-pool layer this introduces into every v3 residual block is
    precisely where Figure 6 (right) localizes the reference-kernel bug.
    """
    return Layer("se", name)


def inception(name: str, branches: list[list[Layer]]) -> Layer:
    """Parallel branches concatenated along channels."""
    return Layer("inception", name, {}, branches=branches)


def dense_block(name: str, layers: int, growth: int) -> Layer:
    """DenseNet block: repeatedly concat 3x3 conv features onto the input."""
    return Layer("dense_block", name, {"layers": layers, "growth": growth})


def resize_nearest(name: str, out_h: int, out_w: int) -> Layer:
    return Layer("resize_nearest", name, {"out_h": out_h, "out_w": out_w})


def embedding(name: str, vocab: int, dim: int) -> Layer:
    return Layer("embedding", name, {"vocab": vocab, "dim": dim})


def transformer_block(name: str, num_heads: int, ff_dim: int) -> Layer:
    """Post-LN transformer encoder block (attention + FFN, residuals)."""
    return Layer("transformer", name, {"num_heads": num_heads, "ff_dim": ff_dim})


def mean_seq(name: str = "pool_seq") -> Layer:
    return Layer("mean_seq", name)


def image_normalize(name: str, scale: float, offset: float) -> Layer:
    """In-graph input normalization (the EfficientDet-style defence)."""
    return Layer("image_normalize", name, {"scale": scale, "offset": offset})


def arch_signature(layers: list[Layer]) -> str:
    """Canonical structural description of an architecture.

    Used to key the trained-weights cache: editing a model definition
    automatically invalidates its cached training result.
    """
    parts = []
    for layer in layers:
        attrs = ",".join(f"{k}={layer.attrs[k]!r}" for k in sorted(layer.attrs))
        entry = f"{layer.kind}:{layer.name}({attrs})"
        if layer.body:
            entry += "{" + arch_signature(layer.body) + "}"
        if layer.branches:
            entry += "[" + "|".join(
                arch_signature(b) for b in layer.branches if b) + "]"
        parts.append(entry)
    return ";".join(parts)


# --------------------------------------------------------------- interpreter

def run_arch(layers: list[Layer], x, backend):
    """Interpret an architecture over a backend; returns the output value."""
    for layer in layers:
        x = _run_layer(layer, x, backend)
    return x


def _run_layer(layer: Layer, x, b):
    kind, name, attrs = layer.kind, layer.name, layer.attrs
    if kind == "conv":
        x = b.conv(x, name, attrs["out_ch"], attrs["k"], attrs["stride"],
                   "same", use_bias=not attrs["bn"])
        if attrs["bn"]:
            x = b.batch_norm(x, f"{name}_bn")
        if attrs["act"] != "linear":
            x = b.act(x, f"{name}_act", attrs["act"])
        return x
    if kind == "dwconv":
        pad_mode = "same"
        if attrs["stride"] != 1:
            x = b.pad_for(x, f"{name}_pad", 3, attrs["stride"])
            pad_mode = "valid"
        x = b.dwconv(x, name, 3, attrs["stride"], pad_mode)
        x = b.batch_norm(x, f"{name}_bn")
        if attrs["act"] != "linear":
            x = b.act(x, f"{name}_act", attrs["act"])
        return x
    if kind == "dense":
        x = b.dense(x, name, attrs["units"])
        if attrs["act"] != "linear":
            x = b.act(x, f"{name}_act", attrs["act"])
        return x
    if kind == "gap":
        return b.gap(x, name)
    if kind == "flatten":
        return b.flatten(x, name)
    if kind == "softmax":
        return b.softmax(x, name)
    if kind == "act":
        return b.act(x, name, attrs["fn"])
    if kind == "avgpool":
        return b.avgpool(x, name, attrs["pool"], attrs["stride"], attrs["padding"])
    if kind == "residual":
        body_out = run_arch(layer.body, x, b)
        shortcut = x
        if layer.branches:
            shortcut = run_arch(layer.branches[0], x, b)
        return b.add(body_out, shortcut, f"{name}_add")
    if kind == "avgpool_full":
        return b.avgpool_full(x, name)
    if kind == "se":
        channels = b.channels_of(x)
        squeezed = max(channels // 4, 2)
        s = b.avgpool_full(x, f"{name}_squeeze")
        s = b.conv(s, f"{name}_reduce", squeezed, 1, 1, "same", use_bias=True)
        s = b.act(s, f"{name}_relu", "relu")
        s = b.conv(s, f"{name}_expand", channels, 1, 1, "same", use_bias=True)
        s = b.act(s, f"{name}_gate", "hard_sigmoid")
        return b.mul(x, s, f"{name}_scale")
    if kind == "inception":
        outs = [run_arch(branch, x, b) for branch in layer.branches]
        return b.concat(outs, f"{name}_concat")
    if kind == "dense_block":
        for i in range(attrs["layers"]):
            y = b.conv(x, f"{name}_l{i}", attrs["growth"], 3, 1, "same",
                       use_bias=False)
            y = b.batch_norm(y, f"{name}_l{i}_bn")
            y = b.act(y, f"{name}_l{i}_act", "relu")
            x = b.concat([x, y], f"{name}_l{i}_cat")
        return x
    if kind == "resize_nearest":
        return b.resize_nearest(x, name, attrs["out_h"], attrs["out_w"])
    if kind == "embedding":
        return b.embedding(x, name, attrs["vocab"], attrs["dim"])
    if kind == "transformer":
        dim = b.channels_of(x)
        attended = b.attention(x, f"{name}_attn", attrs["num_heads"])
        x = b.add(x, attended, f"{name}_res1")
        x = b.layer_norm(x, f"{name}_ln1")
        ff = b.dense(x, f"{name}_ff1", attrs["ff_dim"])
        ff = b.act(ff, f"{name}_gelu", "gelu")
        ff = b.dense(ff, f"{name}_ff2", dim)
        x = b.add(x, ff, f"{name}_res2")
        return b.layer_norm(x, f"{name}_ln2")
    if kind == "mean_seq":
        return b.mean_seq(x, name)
    if kind == "image_normalize":
        return b.image_normalize(x, name, attrs["scale"], attrs["offset"])
    raise ValueError(f"unknown layer kind {kind!r} ({name!r})")
