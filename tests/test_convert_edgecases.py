"""Conversion-pass edge cases: fold/fuse safety conditions, quantized
structural ops, and failure-injection coverage the happy path misses."""

import numpy as np
import pytest

from repro.convert import (
    QuantizationConfig,
    convert_to_mobile,
    fold_batch_norm,
    fuse_activations,
    quantize_graph,
)
from repro.graph import GraphBuilder
from repro.kernels.quantized import KernelBugs
from repro.runtime import Interpreter, OpResolver


def bn_params(rng, c):
    return dict(
        mean=rng.normal(0, 0.2, c).astype(np.float32),
        variance=(np.abs(rng.normal(1, 0.2, c)) + 0.2).astype(np.float32),
        gamma=np.ones(c, np.float32),
        beta=np.zeros(c, np.float32),
    )


class TestFoldSafety:
    def test_bn_with_shared_producer_not_folded(self, rng):
        """If the conv output feeds both a BN and a skip connection, folding
        would change the skip value — the pass must leave it alone."""
        b = GraphBuilder("g")
        x = b.input("input", (None, 4, 4, 3))
        h = b.conv2d(x, rng.normal(0, 0.3, (3, 3, 3, 4)).astype(np.float32),
                     name="c")
        p = bn_params(rng, 4)
        bn = b.batch_norm(h, p["mean"], p["variance"], p["gamma"], p["beta"],
                          name="bn")
        out = b.add_tensors(bn, h, name="skip_add")  # h used twice
        b.mark_output(out)
        graph = b.finish()
        folded = fold_batch_norm(graph)
        assert any(n.op == "batch_norm" for n in folded.nodes)
        data = rng.normal(size=(2, 4, 4, 3)).astype(np.float32)
        np.testing.assert_allclose(Interpreter(graph).invoke_single(data),
                                   Interpreter(folded).invoke_single(data))

    def test_bn_on_graph_input_not_folded(self, rng):
        b = GraphBuilder("g")
        x = b.input("input", (None, 4, 4, 3))
        p = bn_params(rng, 3)
        h = b.batch_norm(x, p["mean"], p["variance"], p["gamma"], p["beta"],
                         name="bn")
        b.mark_output(h)
        folded = fold_batch_norm(b.finish())
        assert any(n.op == "batch_norm" for n in folded.nodes)

    def test_fold_through_dense(self, rng):
        b = GraphBuilder("g")
        x = b.input("input", (None, 6))
        h = b.dense(x, rng.normal(0, 0.3, (6, 4)).astype(np.float32), name="fc")
        p = bn_params(rng, 4)
        h = b.batch_norm(h, p["mean"], p["variance"], p["gamma"], p["beta"],
                         name="fc_bn")
        b.mark_output(h)
        graph = b.finish()
        folded = fold_batch_norm(graph)
        assert not any(n.op == "batch_norm" for n in folded.nodes)
        data = rng.normal(size=(5, 6)).astype(np.float32)
        np.testing.assert_allclose(Interpreter(graph).invoke_single(data),
                                   Interpreter(folded).invoke_single(data),
                                   rtol=1e-4, atol=1e-6)


class TestFuseSafety:
    def test_activation_with_shared_input_not_fused(self, rng):
        b = GraphBuilder("g")
        x = b.input("input", (None, 4, 4, 3))
        h = b.conv2d(x, rng.normal(0, 0.3, (1, 1, 3, 4)).astype(np.float32),
                     np.zeros(4, np.float32), name="c")
        a = b.activation(h, "relu", name="act")
        out = b.add_tensors(a, h, name="pre_act_skip")  # h consumed twice
        b.mark_output(out)
        graph = b.finish()
        fused = fuse_activations(graph)
        assert any(n.op == "activation" for n in fused.nodes)

    def test_fuse_into_add(self, rng):
        b = GraphBuilder("g")
        x = b.input("input", (None, 4, 4, 3))
        h1 = b.conv2d(x, rng.normal(0, 0.3, (1, 1, 3, 3)).astype(np.float32),
                      np.zeros(3, np.float32), name="c1")
        s = b.add_tensors(h1, x, name="res")
        out = b.activation(s, "relu", name="res_act")
        b.mark_output(out)
        fused = fuse_activations(b.finish())
        add_node = fused.node("res_act")
        assert add_node.op == "add" and add_node.attrs["activation"] == "relu"


class TestQuantizedStructuralOps:
    def build_branchy(self, rng):
        """Concat of two differently-scaled branches + residual add —
        exercises the rescale paths of quantized concat/add."""
        b = GraphBuilder("g")
        x = b.input("input", (None, 6, 6, 3))
        relu = {"stride": 1, "padding": "same", "activation": "relu"}
        left = b.add("conv2d", x, name="left", attrs=relu, weights={
            "weights": rng.normal(0, 0.2, (1, 1, 3, 4)).astype(np.float32),
            "bias": np.zeros(4, np.float32)})
        right = b.add("conv2d", x, name="right", attrs=relu, weights={
            "weights": rng.normal(0, 1.2, (3, 3, 3, 4)).astype(np.float32),
            "bias": np.zeros(4, np.float32)})
        merged = b.add("concat", [left, right], name="merged",
                       attrs={"axis": -1})
        gate = b.add("avg_pool2d", merged, name="pool",
                     attrs={"pool_size": 2, "stride": 2, "padding": "valid"})
        b.mark_output(gate)
        return b.finish()

    def test_quantized_concat_rescales(self, rng):
        graph = self.build_branchy(rng)
        calib = [rng.uniform(-1, 1, (8, 6, 6, 3)).astype(np.float32)]
        quant = quantize_graph(graph, calib)
        data = rng.uniform(-1, 1, (4, 6, 6, 3)).astype(np.float32)
        float_out = Interpreter(graph).invoke_single(data)
        quant_out = Interpreter(quant).invoke_single(data)
        span = float(float_out.max() - float_out.min()) or 1.0
        assert np.abs(float_out - quant_out).max() / span < 0.05

    def test_quantized_pad_bug_observable_end_to_end(self, rng, small_cnn_mobile,
                                                     calib_batch):
        quant = quantize_graph(small_cnn_mobile, [calib_batch])
        # Insert an explicit pad path by running on a graph that has pads.
        from repro.zoo import get_model
        vg = get_model("micro_mobilenet_v2", "quantized")
        x, _ = (calib_batch, None)
        data = rng.uniform(-1, 1, (2, 32, 32, 3)).astype(np.float32)
        clean = Interpreter(vg, OpResolver()).invoke_single(data)
        bugged = Interpreter(
            vg, OpResolver(bugs=KernelBugs(pad_ignores_zero_point=True))
        ).invoke_single(data)
        assert not np.array_equal(clean, bugged)

    def test_quantize_twice_is_idempotent_error(self, small_cnn_quantized,
                                                calib_batch):
        from repro.util.errors import QuantizationError
        with pytest.raises(QuantizationError):
            quantize_graph(small_cnn_quantized, [calib_batch])


class TestMobileConversionOnZoo:
    @pytest.mark.parametrize("name", ["micro_inception", "micro_densenet",
                                      "deeplab_lite", "nnlm_lite"])
    def test_stage_equivalence(self, name):
        from repro.zoo import build_checkpoint, eval_data
        graph = build_checkpoint(name)
        mobile = convert_to_mobile(graph)
        x, _ = eval_data(name, 16)
        a = Interpreter(graph).invoke_single(x)
        b = Interpreter(mobile).invoke_single(x)
        np.testing.assert_allclose(a, b, rtol=1e-3, atol=1e-4)
