"""Interpreter and resolver tests: execution, observers, memory, latency."""

import numpy as np
import pytest

from repro.perfmodel import PIXEL4_CPU, PIXEL4_GPU, WORKSTATION
from repro.runtime import (
    Interpreter,
    OpResolver,
    ReferenceOpResolver,
    node_is_quantized,
)
from repro.util.errors import GraphError, ReproError, ShapeError


class TestInvoke:
    def test_output_shape(self, small_cnn, rng):
        out = Interpreter(small_cnn).invoke_single(
            rng.normal(size=(5, 8, 8, 3)).astype(np.float32))
        assert out.shape == (5, 4)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=1e-5)

    def test_dict_feeds(self, small_cnn, rng):
        x = rng.normal(size=(2, 8, 8, 3)).astype(np.float32)
        out = Interpreter(small_cnn).invoke({"input": x})
        assert "probs" in out

    def test_missing_feed_rejected(self, small_cnn):
        with pytest.raises(ShapeError):
            Interpreter(small_cnn).invoke({})

    def test_wrong_shape_rejected(self, small_cnn, rng):
        with pytest.raises(ShapeError):
            Interpreter(small_cnn).invoke_single(
                rng.normal(size=(2, 9, 8, 3)).astype(np.float32))

    def test_float64_feeds_coerced(self, small_cnn, rng):
        out = Interpreter(small_cnn).invoke_single(rng.normal(size=(1, 8, 8, 3)))
        assert np.isfinite(out).all()

    def test_deterministic(self, small_cnn, rng):
        x = rng.normal(size=(2, 8, 8, 3)).astype(np.float32)
        a = Interpreter(small_cnn).invoke_single(x)
        b = Interpreter(small_cnn).invoke_single(x)
        np.testing.assert_array_equal(a, b)


class TestObservers:
    def test_observer_sees_every_node(self, small_cnn, rng):
        seen = []
        interp = Interpreter(small_cnn)
        interp.add_observer(lambda rec: seen.append(rec.node.name))
        interp.invoke_single(rng.normal(size=(1, 8, 8, 3)).astype(np.float32))
        assert seen == [n.name for n in small_cnn.nodes]

    def test_observer_gets_outputs(self, small_cnn, rng):
        records = {}
        interp = Interpreter(small_cnn)
        interp.add_observer(lambda rec: records.__setitem__(rec.node.name,
                                                            rec.output))
        out = interp.invoke_single(rng.normal(size=(1, 8, 8, 3)).astype(np.float32))
        np.testing.assert_array_equal(records["probs"], out)

    def test_remove_observer(self, small_cnn, rng):
        seen = []
        fn = lambda rec: seen.append(1)
        interp = Interpreter(small_cnn)
        interp.add_observer(fn)
        interp.remove_observer(fn)
        interp.invoke_single(rng.normal(size=(1, 8, 8, 3)).astype(np.float32))
        assert not seen


class TestMemoryAccounting:
    def test_peak_at_least_largest_tensor(self, small_cnn, rng):
        interp = Interpreter(small_cnn)
        x = rng.normal(size=(4, 8, 8, 3)).astype(np.float32)
        interp.invoke_single(x)
        assert interp.last_peak_activation_bytes >= x.nbytes

    def test_weights_bytes(self, small_cnn):
        interp = Interpreter(small_cnn)
        assert interp.weights_bytes() == small_cnn.param_bytes()

    def test_quantized_weights_smaller(self, small_cnn_mobile, small_cnn_quantized):
        float_bytes = Interpreter(small_cnn_mobile).weights_bytes()
        quant_bytes = Interpreter(small_cnn_quantized).weights_bytes()
        assert quant_bytes < float_bytes / 2  # int8 weights + int32 biases


class TestLatency:
    def test_wall_clock_without_device(self, small_cnn, rng):
        interp = Interpreter(small_cnn)
        interp.invoke_single(rng.normal(size=(1, 8, 8, 3)).astype(np.float32))
        assert interp.last_latency_ms > 0
        assert len(interp.last_profile) == len(small_cnn.nodes)

    def test_simulated_latency_deterministic(self, small_cnn, rng):
        x = rng.normal(size=(1, 8, 8, 3)).astype(np.float32)
        a = Interpreter(small_cnn, device=PIXEL4_CPU)
        a.invoke_single(x)
        b = Interpreter(small_cnn, device=PIXEL4_CPU)
        b.invoke_single(x)
        assert a.last_latency_ms == b.last_latency_ms

    def test_reference_resolver_slower_on_device(self, small_cnn_quantized, rng):
        x = rng.normal(size=(1, 8, 8, 3)).astype(np.float32)
        opt = Interpreter(small_cnn_quantized, OpResolver(), PIXEL4_CPU)
        opt.invoke_single(x)
        ref = Interpreter(small_cnn_quantized, ReferenceOpResolver(), PIXEL4_CPU)
        ref.invoke_single(x)
        assert ref.last_latency_ms > 20 * opt.last_latency_ms

    def test_gpu_faster_than_cpu_float(self, small_cnn_mobile, rng):
        x = rng.normal(size=(1, 8, 8, 3)).astype(np.float32)
        cpu = Interpreter(small_cnn_mobile, device=PIXEL4_CPU)
        cpu.invoke_single(x)
        gpu = Interpreter(small_cnn_mobile, device=PIXEL4_GPU)
        gpu.invoke_single(x)
        assert gpu.last_latency_ms < cpu.last_latency_ms

    def test_gpu_rejects_int8(self, small_cnn_quantized, rng):
        interp = Interpreter(small_cnn_quantized, device=PIXEL4_GPU)
        with pytest.raises(ReproError):
            interp.invoke_single(rng.normal(size=(1, 8, 8, 3)).astype(np.float32))

    def test_flatten_dense_tail_latency_pinned(self, rng):
        # Regression: batch used to be re-inferred per node from
        # out.shape[0]; it must come from the graph-input feed, once per
        # invoke, so every node of a flatten->dense tail is charged the
        # same feed batch. The expected value is built from node_work at
        # exactly that batch.
        from repro.graph import GraphBuilder
        from repro.perfmodel.work import OP_CLASS, node_work

        b = GraphBuilder("tail")
        x = b.input("input", (None, 4, 4, 2))
        h = b.add("flatten", x, name="flat")
        h = b.dense(h, rng.normal(size=(32, 3)).astype(np.float32),
                    rng.normal(size=(3,)).astype(np.float32), name="logits")
        b.mark_output(h)
        graph = b.finish()

        batch = 4
        interp = Interpreter(graph, device=PIXEL4_CPU)
        interp.invoke(rng.normal(size=(batch, 4, 4, 2)).astype(np.float32))

        expected = 0.0
        for node in graph.nodes:
            work = node_work(graph, node, batch=batch)
            expected += PIXEL4_CPU.layer_latency_ms(
                OP_CLASS.get(node.op, "act"), "float", "optimized",
                work.macs, work.elements)
        assert interp.last_latency_ms == expected

    def test_batch_not_inferred_from_node_outputs(self, rng):
        # A dynamic non-leading dimension makes the old inference visibly
        # wrong: with input spec (2, None) fed as (2, 8), out.shape[0] is
        # 2 for every node, so the old code charged 2*2=4 elements instead
        # of the actual 2*8=16.
        from repro.graph import GraphBuilder
        from repro.perfmodel.work import node_work

        b = GraphBuilder("seq")
        x = b.input("input", (2, None))
        h = b.activation(x, "relu", name="act")
        b.mark_output(h)
        graph = b.finish()

        interp = Interpreter(graph, device=PIXEL4_CPU)
        interp.invoke(rng.normal(size=(2, 8)).astype(np.float32))
        work = node_work(graph, graph.nodes[0], batch=8)
        assert work.elements == 16  # the real element count of the output
        expected = PIXEL4_CPU.layer_latency_ms(
            "act", "float", "optimized", work.macs, work.elements)
        assert interp.last_latency_ms == expected


class TestResolvers:
    def test_optimized_equals_reference_float(self, small_cnn_mobile, rng):
        x = rng.normal(size=(2, 8, 8, 3)).astype(np.float32)
        a = Interpreter(small_cnn_mobile, OpResolver()).invoke_single(x)
        b = Interpreter(small_cnn_mobile, ReferenceOpResolver()).invoke_single(x)
        np.testing.assert_array_equal(a, b)

    def test_optimized_equals_reference_quantized(self, small_cnn_quantized,
                                                  rng):
        x = rng.normal(size=(2, 8, 8, 3)).astype(np.float32)
        a = Interpreter(small_cnn_quantized, OpResolver()).invoke_single(x)
        b = Interpreter(small_cnn_quantized, ReferenceOpResolver()).invoke_single(x)
        np.testing.assert_array_equal(a, b)

    def test_custom_op_registration(self, small_cnn, rng):
        resolver = OpResolver()
        calls = []

        def spy_softmax(node, inputs, ctx):
            calls.append(node.name)
            from repro.kernels import softmax
            return softmax(inputs[0])

        resolver.register("softmax", False, spy_softmax)
        Interpreter(small_cnn, resolver).invoke_single(
            rng.normal(size=(1, 8, 8, 3)).astype(np.float32))
        assert calls == ["probs"]

    @pytest.mark.parametrize("kind", ["optimized", "reference"])
    def test_table1_hand_rolled_loops_match_invoke(self, kind, tmp_path):
        """The Table 1 "without ML-EXray" snippets call each executor
        through ``resolver.lookup``, outside any plan, with a hand-built
        context: every layer they see and every output they return equals
        ``Interpreter.invoke``'s byte for byte."""
        import importlib.util
        from pathlib import Path

        from repro.runtime.resolver import make_resolver
        from repro.zoo import eval_data, get_model

        snippets = (Path(__file__).resolve().parents[1] / "benchmarks"
                    / "loc_snippets" / "without_mlexray")
        graph = get_model("micro_mobilenet_v2", "quantized")
        x = np.ascontiguousarray(eval_data("micro_mobilenet_v2", 4)[0],
                                 dtype=np.float32)
        interp = Interpreter(graph, make_resolver(kind))
        layers = {}
        interp.add_observer(lambda rec: layers.__setitem__(
            rec.node.name, np.array(rec.output)))
        want = interp.invoke(x)
        for name in ("quantization", "per_layer_latency"):
            spec = importlib.util.spec_from_file_location(
                name, snippets / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            out_dir = tmp_path / name
            got = module.instrument(graph, make_resolver(kind),
                                    {graph.inputs[0]: x}, out_dir)
            assert got.keys() == want.keys()
            for t, arr in want.items():
                assert got[t].dtype == arr.dtype
                assert got[t].tobytes() == arr.tobytes(), (name, t)
        for position, node in enumerate(graph.nodes):
            saved = np.load(tmp_path / "quantization"
                            / f"layer_{position:04d}.npy")
            assert saved.tobytes() == layers[node.name].tobytes(), node.name

    def test_missing_kernel_error(self, small_cnn):
        resolver = OpResolver()
        del resolver._registry[("softmax", False)]
        with pytest.raises(GraphError):
            resolver.lookup("softmax", False)


class TestNodeIsQuantized:
    def test_float_graph(self, small_cnn):
        assert not any(node_is_quantized(small_cnn, n) for n in small_cnn.nodes)

    def test_quantized_graph(self, small_cnn_quantized):
        flags = {n.name: node_is_quantized(small_cnn_quantized, n)
                 for n in small_cnn_quantized.nodes}
        assert flags["stem_act"]          # internal op quantized
        assert not flags["input__q"]      # quantize bridge consumes float
        assert flags["probs__f"]          # dequantize bridge consumes int8
