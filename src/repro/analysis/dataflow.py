"""Forward abstract interpretation over a graph with an interval domain.

Every tensor is assigned a *storage-domain* interval: real-valued bounds for
float tensors, integer quantized-code bounds for quantized tensors. The
engine walks the (topologically ordered) node list once, applying a
per-op-class transfer function:

* **weighted ops** (conv2d / depthwise_conv2d / dense) propagate
  weight-scaled bounds per output channel: with input ``[l, u]`` and
  per-channel positive/negative tap sums ``P_c`` / ``N_c``, the output
  channel is bounded by ``[l*P_c + u*N_c, u*P_c + l*N_c] + bias_c``. The
  quantized variants mirror the integer kernels exactly — centered codes
  through the tap sums give the worst-case int32 accumulator (recorded for
  rule D001), then the requantization multiplier and the fused-activation
  clamp map it to output codes;
* **clamps** (relu/relu6, fused or standalone) intersect with their range;
  monotone activations map endpoints; the non-monotone ones (hard_swish,
  gelu) add their interior minimum as a candidate;
* **pooling / reshape / concat** preserve or hull their inputs (average
  pooling excludes padding from the mean and max pooling pads with a
  never-winning value, so neither widens the range);
* **quantize / dequantize** map through scale and zero point.

Input intervals are seeded from the input specs and the deployment
pipeline recorded in graph metadata (a "[-1,1]" image normalization seeds
``[-1, 1]``); quantized inputs seed their dtype's code range. Calibration
statistics recorded by the quantization pass
(``metadata["calibration_ranges"]``) are treated as *checked assumptions*:
they are never folded into the propagated state (which keeps the derived
bounds sound with respect to the input contract alone), but an observed
range that is disjoint from the derived reachable interval is recorded as
a contradiction — the statistics and the graph cannot both be right (rule
D004).

Soundness contract (property-tested): for any concrete input within the
seeded input intervals, every tensor the interpreter materializes stays
inside its derived interval. Non-weighted quantized ops carry a ±1-code
slack for kernel rounding; the weighted path models the kernel arithmetic
exactly and needs none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.graph.graph import Graph
from repro.graph.node import Node
from repro.kernels.activations import gelu, sigmoid
from repro.kernels.quantized.requant import (
    fused_activation_bounds,
    output_multiplier,
)
from repro.quantize.params import QuantParams, dtype_range

INF = float("inf")

_ROUNDING_SLACK = 1
"""Codes of slack on re-encoded bounds of non-weighted quantized ops."""

# Interior minimum of the tanh-approximation GELU (global, at x ~ -0.75),
# bounded below on a deterministic grid with a safety margin.
_GELU_MIN = float(gelu(np.linspace(-8.0, 0.0, 200_001)).min()) - 1e-4


@dataclass(frozen=True)
class Interval:
    """A closed real interval ``[lo, hi]``; ``lo > hi`` encodes empty."""

    lo: float
    hi: float

    @classmethod
    def top(cls) -> "Interval":
        return cls(-INF, INF)

    @classmethod
    def empty(cls) -> "Interval":
        return cls(INF, -INF)

    @classmethod
    def point(cls, value: float) -> "Interval":
        return cls(float(value), float(value))

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi and math.isfinite(self.lo)

    @property
    def is_bounded(self) -> bool:
        return not self.is_empty and math.isfinite(self.lo) \
            and math.isfinite(self.hi)

    @property
    def width(self) -> float:
        return 0.0 if self.is_empty else self.hi - self.lo

    def contains(self, value: float, tol: float = 0.0) -> bool:
        return not self.is_empty and \
            self.lo - tol <= value <= self.hi + tol

    def hull(self, other: "Interval") -> "Interval":
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def intersect(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def add(self, other: "Interval") -> "Interval":
        if self.is_empty or other.is_empty:
            return Interval.empty()
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def mul(self, other: "Interval") -> "Interval":
        if self.is_empty or other.is_empty:
            return Interval.empty()
        products = [_prod(a, b)
                    for a in (self.lo, self.hi) for b in (other.lo, other.hi)]
        return Interval(min(products), max(products))

    def affine(self, scale: float, offset: float) -> "Interval":
        """Map through ``y = x*scale + offset`` (scalar, any sign)."""
        if self.is_empty:
            return self
        a = _prod(self.lo, scale) + offset
        b = _prod(self.hi, scale) + offset
        return Interval(min(a, b), max(a, b))

    def to_doc(self) -> list:
        return [None if not math.isfinite(self.lo) else self.lo,
                None if not math.isfinite(self.hi) else self.hi]


def _prod(a: float, b: float) -> float:
    """``a*b`` with the interval-arithmetic convention ``0 * inf == 0``."""
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


def _mul_bound(bound: float, coeff: np.ndarray) -> np.ndarray:
    """Elementwise ``bound * coeff`` with ``inf * 0 == 0`` (see ``_prod``)."""
    with np.errstate(invalid="ignore"):
        out = np.asarray(coeff, dtype=np.float64) * bound
    return np.where(np.asarray(coeff) == 0.0, 0.0, out)


@dataclass
class RangeFacts:
    """Everything one value-range analysis derived about a graph."""

    graph: Graph
    ranges: dict[str, Interval] = field(default_factory=dict)
    accumulators: dict[str, Interval] = field(default_factory=dict)
    input_ranges: dict[str, Interval] = field(default_factory=dict)
    contradictions: list[dict] = field(default_factory=list)

    def real_range(self, tensor: str) -> Interval:
        """The tensor's interval in the real domain (dequantized codes)."""
        iv = self.ranges[tensor]
        params = self.graph.spec(tensor).quant
        if params is None or iv.is_empty:
            return iv
        return _decode(iv, params)


def default_input_ranges(graph: Graph) -> dict[str, Interval]:
    """Seed intervals for the graph inputs from specs and pipeline metadata.

    Quantized inputs seed their dtype's full code range. Float image inputs
    seed the range their recorded normalization scheme emits; spectrogram
    inputs under the clipped ``global_db`` convention seed ``[-1, 1]``.
    Anything else (unit-less floats, token ids) seeds top — the analysis
    stays sound without assuming a contract nobody recorded.
    """
    pipeline = graph.metadata.get("pipeline") or {}
    seeds: dict[str, Interval] = {}
    for name in graph.inputs:
        spec = graph.spec(name)
        if spec.quant is not None:
            qmin, qmax = dtype_range(spec.quant.dtype)
            seeds[name] = Interval(float(qmin), float(qmax))
            continue
        if not spec.dtype.startswith("float"):
            seeds[name] = Interval.top()
            continue
        seeds[name] = _pipeline_input_range(pipeline)
    return seeds


def _pipeline_input_range(pipeline: dict) -> Interval:
    image = pipeline.get("image_preprocess")
    if image is not None:
        from repro.pipelines.preprocess import NORMALIZATIONS

        scheme = NORMALIZATIONS.get(image.get("normalization", "[-1,1]"))
        if scheme is not None:
            lo, hi = sorted((scheme.offset, scheme.scale + scheme.offset))
            return Interval(lo, hi)
        return Interval.top()
    if pipeline.get("spectrogram_normalization") == "global_db":
        return Interval(-1.0, 1.0)  # fixed dB window, clipped to [-1, 1]
    return Interval.top()


def analyze_ranges(
    graph: Graph,
    input_ranges: dict[str, Interval] | None = None,
) -> RangeFacts:
    """Run the forward interval analysis over every tensor of ``graph``."""
    seeds = default_input_ranges(graph)
    if input_ranges:
        seeds.update(input_ranges)
    facts = RangeFacts(graph=graph, input_ranges=dict(seeds))
    facts.ranges.update(seeds)
    for node in graph.nodes:
        ins = [facts.ranges.get(t, Interval.top()) for t in node.inputs]
        facts.ranges[node.output] = _transfer(graph, node, ins, facts)
    _check_calibration_hints(graph, facts)
    return facts


def _check_calibration_hints(graph: Graph, facts: RangeFacts) -> None:
    """Compare derived reachable intervals against recorded calibration stats.

    An empty derived interval, or an observed range strictly disjoint from
    the derived one (beyond a guard band for quantization error), is a
    contradiction: the calibration statistics and the graph cannot both
    describe the same deployment.
    """
    hints = graph.metadata.get("calibration_ranges") or {}
    flagged: set[str] = set()
    for tensor, hint in hints.items():
        if tensor not in facts.ranges or tensor not in graph.tensors:
            continue
        derived = facts.real_range(tensor)
        if derived.is_empty:
            continue  # reported below as an empty-interval contradiction
        hint_lo, hint_hi = float(hint[0]), float(hint[1])
        guard = 1e-6 + 0.1 * max(hint_hi - hint_lo, derived.width, 1e-12)
        if hint_lo > derived.hi + guard or hint_hi < derived.lo - guard:
            flagged.add(tensor)
            facts.contradictions.append({
                "tensor": tensor, "kind": "disjoint",
                "derived": derived.to_doc(),
                "hint": [hint_lo, hint_hi],
            })
    for tensor, iv in facts.ranges.items():
        if iv.is_empty and tensor not in flagged:
            facts.contradictions.append({
                "tensor": tensor, "kind": "empty",
                "derived": None, "hint": None,
            })


# ------------------------------------------------------------- transfer fns

def _transfer(graph: Graph, node: Node, ins: list[Interval],
              facts: RangeFacts) -> Interval:
    if any(iv.is_empty for iv in ins):
        return Interval.empty()
    if node.op == "quantize":
        return _encode(ins[0], graph.spec(node.output).quant, slack=0)
    if node.op == "dequantize":
        return _decode(ins[0], graph.spec(node.inputs[0]).quant)
    from repro.runtime.plan import node_is_quantized

    if node_is_quantized(graph, node):
        return _transfer_quantized(graph, node, ins, facts)
    return _transfer_float(graph, node, ins)


def _decode(codes: Interval, params: QuantParams) -> Interval:
    """Quantized codes -> real values, conservative over channel params."""
    scale = np.asarray(params.scale, dtype=np.float64)
    zp = np.asarray(params.zero_point, dtype=np.float64)
    lo = _mul_bound(codes.lo, scale) - zp * scale
    hi = _mul_bound(codes.hi, scale) - zp * scale
    return Interval(float(np.min(lo)), float(np.max(hi)))


def _encode(real: Interval, params: QuantParams, *,
            activation: str = "linear", slack: int = _ROUNDING_SLACK) -> Interval:
    """Real values -> quantized codes, with optional kernel-rounding slack."""
    if params.axis is not None:
        # Per-channel activation params never occur in practice; give up
        # precision rather than soundness if one ever does.
        qmin, qmax = dtype_range(params.dtype)
        return Interval(float(qmin), float(qmax))
    lo_b, hi_b = fused_activation_bounds(activation, params)
    scale = float(params.scale.item())
    zp = float(params.zero_point.item())
    lo = _round_code(real.lo / scale if math.isfinite(real.lo) else real.lo)
    hi = _round_code(real.hi / scale if math.isfinite(real.hi) else real.hi)
    lo_code = np.clip(lo + zp - slack, lo_b, hi_b)
    hi_code = np.clip(hi + zp + slack, lo_b, hi_b)
    return Interval(float(lo_code), float(hi_code))


def _round_code(value: float) -> float:
    if not math.isfinite(value):
        return value
    return float(np.round(value))


def _weight_tap_sums(node: Node) -> tuple[np.ndarray, np.ndarray]:
    """Per-output-channel sums of positive and negative weight taps."""
    w = np.asarray(node.weights["weights"], dtype=np.float64)
    if node.op == "conv2d":
        axes = (0, 1, 2)          # (kh, kw, cin, cout) -> per cout
    elif node.op == "depthwise_conv2d":
        axes = (0, 1)             # (kh, kw, c, mult) -> per (c, mult)
    else:                          # dense: (din, dout) -> per dout
        axes = (0,)
    pos = np.clip(w, 0.0, None).sum(axis=axes).reshape(-1)
    neg = np.clip(w, None, 0.0).sum(axis=axes).reshape(-1)
    return pos, neg


def _pads_input(node: Node) -> bool:
    """Whether the op can read zero padding (widening the effective input)."""
    if node.op in ("conv2d", "depthwise_conv2d"):
        return node.attrs.get("padding", "same") == "same"
    return False


def _channel_extrema(lo_arr: np.ndarray, hi_arr: np.ndarray) -> Interval:
    return Interval(float(np.min(lo_arr)), float(np.max(hi_arr)))


def _weighted_float(node: Node, x: Interval) -> Interval:
    pos, neg = _weight_tap_sums(node)
    if _pads_input(node):
        x = x.hull(Interval.point(0.0))
    bias = np.asarray(node.weights.get("bias", 0.0), dtype=np.float64)
    lo_arr = _mul_bound(x.lo, pos) + _mul_bound(x.hi, neg) + bias
    hi_arr = _mul_bound(x.hi, pos) + _mul_bound(x.lo, neg) + bias
    out = _channel_extrema(lo_arr, hi_arr)
    return _activation_interval(node.attrs.get("activation", "linear"), out)


def _weighted_quant(graph: Graph, node: Node, x: Interval,
                    facts: RangeFacts) -> Interval:
    """Exact worst-case model of the integer conv/dwconv/dense kernels.

    Mirrors the kernel arithmetic: centered input codes through the tap
    sums give the int32 accumulator range (recorded per node for D001),
    then ``round(acc * M) + zp_out`` clipped to the fused-activation
    bounds gives the output code range, per channel.
    """
    in_params = graph.spec(node.inputs[0]).quant
    out_params = graph.spec(node.output).quant
    w_params = node.weight_quant.get("weights")
    if in_params is None or out_params is None or w_params is None:
        qmin, qmax = dtype_range(graph.spec(node.output).dtype)
        return Interval(float(qmin), float(qmax))  # miswired; Q005 reports it
    pos, neg = _weight_tap_sums(node)
    in_lo, in_hi = dtype_range(in_params.dtype)
    x = x.intersect(Interval(float(in_lo), float(in_hi)))
    if x.is_empty:
        return Interval.empty()
    zp_in = float(in_params.zero_point.item())
    centered = Interval(x.lo - zp_in, x.hi - zp_in)
    if _pads_input(node):
        centered = centered.hull(Interval.point(0.0))  # kernels pad with zp
    bias = np.asarray(node.weights.get("bias", 0.0), dtype=np.float64)
    acc_lo = _mul_bound(centered.lo, pos) + _mul_bound(centered.hi, neg) + bias
    acc_hi = _mul_bound(centered.hi, pos) + _mul_bound(centered.lo, neg) + bias
    facts.accumulators[node.name] = _channel_extrema(acc_lo, acc_hi)

    mult = np.asarray(output_multiplier(in_params, w_params, out_params),
                      dtype=np.float64).reshape(-1)
    zp_out = float(out_params.zero_point.item())
    lo_codes = np.round(acc_lo * mult) + zp_out
    hi_codes = np.round(acc_hi * mult) + zp_out
    lo_b, hi_b = fused_activation_bounds(
        node.attrs.get("activation", "linear"), out_params)
    return _channel_extrema(np.clip(lo_codes, lo_b, hi_b),
                            np.clip(hi_codes, lo_b, hi_b))


def _activation_interval(fn: str, x: Interval) -> Interval:
    if x.is_empty:
        return x
    if fn in ("linear", ""):
        return x
    if fn == "relu":
        return Interval(max(x.lo, 0.0), max(x.hi, 0.0))
    if fn == "relu6":
        return Interval(min(max(x.lo, 0.0), 6.0), min(max(x.hi, 0.0), 6.0))
    if fn == "hard_sigmoid":
        return Interval(_hard_sigmoid(x.lo), _hard_sigmoid(x.hi))
    if fn == "sigmoid":
        return Interval(_sigmoid(x.lo), _sigmoid(x.hi))
    if fn == "tanh":
        return Interval(math.tanh(x.lo) if math.isfinite(x.lo) else -1.0,
                        math.tanh(x.hi) if math.isfinite(x.hi) else 1.0)
    if fn == "hard_swish":
        los = [_hard_swish(x.lo), _hard_swish(x.hi)]
        his = list(los)
        if x.contains(-1.5):
            los.append(-0.375)     # interior global minimum at x = -1.5
        if x.lo < 0.0:
            his.append(0.0)        # supremum of the negative branch
        return Interval(min(los), max(his))
    if fn == "gelu":
        los = [_gelu(x.lo), _gelu(x.hi)]
        his = list(los)
        if x.lo <= 0.0 and x.hi >= -8.0:
            los.append(_GELU_MIN)  # interior global minimum near x = -0.75
        if x.lo < 0.0:
            his.append(0.0)        # negative tail approaches 0 from below
        return Interval(min(los), max(his))
    return Interval.top()          # unknown activation: stay sound


def _hard_sigmoid(v: float) -> float:
    if v == INF:
        return 1.0
    if v == -INF:
        return 0.0
    return float(np.clip(v + 3.0, 0.0, 6.0) / 6.0)


def _sigmoid(v: float) -> float:
    if v == INF:
        return 1.0
    if v == -INF:
        return 0.0
    return float(sigmoid(np.float64(v)))


def _hard_swish(v: float) -> float:
    if v == INF:
        return INF
    if v == -INF:
        return 0.0
    return float(v * _hard_sigmoid(v))


def _gelu(v: float) -> float:
    if v == INF:
        return INF
    if v == -INF:
        return 0.0
    return float(gelu(np.float64(v)))


def _real_common(node: Node, ins: list[Interval]) -> Interval | None:
    """Real-domain transfer for the ops shared by both domains."""
    if node.op == "activation":
        return _activation_interval(node.attrs.get("fn", "linear"), ins[0])
    if node.op == "softmax":
        return Interval(0.0, 1.0)
    if node.op in ("avg_pool2d", "max_pool2d", "global_avg_pool",
                   "reshape", "flatten"):
        # Average pooling excludes padding from its mean; max pooling pads
        # with a never-winning value: both preserve the input range.
        return ins[0]
    if node.op == "pad2d":
        return ins[0].hull(Interval.point(float(node.attrs.get("value", 0.0))))
    if node.op == "add":
        return _activation_interval(node.attrs.get("activation", "linear"),
                                    ins[0].add(ins[1]))
    if node.op == "mul":
        return ins[0].mul(ins[1])
    if node.op == "concat":
        out = Interval.empty()
        for iv in ins:
            out = out.hull(iv)
        return out
    return None


def _transfer_quantized(graph: Graph, node: Node, ins: list[Interval],
                        facts: RangeFacts) -> Interval:
    out_params = graph.spec(node.output).quant
    qmin, qmax = dtype_range(graph.spec(node.output).dtype) \
        if out_params is None else dtype_range(out_params.dtype)
    dtype_iv = Interval(float(qmin), float(qmax))
    if node.op in ("conv2d", "depthwise_conv2d", "dense"):
        return _weighted_quant(graph, node, ins[0], facts)
    if out_params is None:
        return dtype_iv  # unannotated output; Q005's territory
    # Everything else: decode inputs to the real domain, run the shared
    # real transfer, re-encode through the output parameters (±1 code of
    # slack absorbs the kernels' internal rounding).
    real_ins = []
    for t, iv in zip(node.inputs, ins):
        params = graph.spec(t).quant
        real_ins.append(iv if params is None
                        else _decode(iv.intersect(dtype_iv), params))
    real_out = _real_common(node, real_ins)
    if real_out is None:
        return dtype_iv
    activation = node.attrs.get("activation", "linear") \
        if node.op == "add" else "linear"
    return _encode(real_out, out_params, activation=activation)


def _transfer_float(graph: Graph, node: Node, ins: list[Interval]) -> Interval:
    common = _real_common(node, ins)
    if common is not None:
        return common
    if node.op in ("conv2d", "depthwise_conv2d", "dense"):
        return _weighted_float(node, ins[0])
    if node.op == "batch_norm":
        w = node.weights
        var = np.asarray(w["variance"], dtype=np.float64)
        a = np.asarray(w["gamma"], dtype=np.float64) \
            / np.sqrt(var + float(node.attrs.get("eps", 1e-3)))
        b = np.asarray(w["beta"], dtype=np.float64) \
            - np.asarray(w["mean"], dtype=np.float64) * a
        lo = np.minimum(_mul_bound(ins[0].lo, a), _mul_bound(ins[0].hi, a)) + b
        hi = np.maximum(_mul_bound(ins[0].lo, a), _mul_bound(ins[0].hi, a)) + b
        return _channel_extrema(lo, hi)
    if node.op == "layer_norm":
        # The normalized value z = (x - mean)/std satisfies |z| <= sqrt(d-1)
        # for a population std over d elements, independent of the input
        # range; gamma/beta then apply a per-channel affine map.
        d = graph.spec(node.output).shape[-1] or 1
        bound = math.sqrt(max(d - 1, 0))
        gamma = np.asarray(node.weights["gamma"], dtype=np.float64)
        beta = np.asarray(node.weights["beta"], dtype=np.float64)
        lo = np.minimum(-bound * gamma, bound * gamma) + beta
        hi = np.maximum(-bound * gamma, bound * gamma) + beta
        return _channel_extrema(lo, hi)
    if node.op == "embedding":
        table = np.asarray(node.weights["table"], dtype=np.float64)
        return Interval(float(table.min()), float(table.max()))
    if node.op == "self_attention":
        # Attention mixes value rows convexly (softmax weights), so the
        # attended tensor stays within the value projection's bounds; the
        # projections are dense-style affine maps.
        w = node.weights
        v = _affine_matmul(ins[0], w["wv"], w["bv"])
        return _affine_matmul(v, w["wo"], w["bo"])
    if node.op in ("reduce_mean_seq", "resize_nearest", "channel_reverse"):
        return ins[0]
    if node.op == "image_normalize":
        return ins[0].affine(float(node.attrs["scale"]),
                             float(node.attrs["offset"]))
    return Interval.top()


def _affine_matmul(x: Interval, weights: np.ndarray,
                   bias: np.ndarray) -> Interval:
    w = np.asarray(weights, dtype=np.float64)
    pos = np.clip(w, 0.0, None).sum(axis=0)
    neg = np.clip(w, None, 0.0).sum(axis=0)
    b = np.asarray(bias, dtype=np.float64)
    lo = _mul_bound(x.lo, pos) + _mul_bound(x.hi, neg) + b
    hi = _mul_bound(x.hi, pos) + _mul_bound(x.lo, neg) + b
    return _channel_extrema(lo, hi)
