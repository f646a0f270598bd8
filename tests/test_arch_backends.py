"""Architecture DSL and backend tests: train/export consistency per block."""

import numpy as np
import pytest

from repro.autograd import Var
from repro.graph import GraphBuilder
from repro.runtime import Interpreter
from repro.util.errors import GraphError
from repro.zoo.arch import (
    arch_signature,
    avgpool,
    avgpool_full,
    conv,
    dense,
    dense_block,
    dwconv,
    embedding,
    flatten,
    gap,
    image_normalize,
    inception,
    mean_seq,
    residual,
    resize_nearest,
    run_arch,
    se_block,
    softmax,
    transformer_block,
)
from repro.zoo.backends import ExportBackend, ParamStore, TrainBackend


def train_then_export(arch, input_shape, rng, dtype="float32"):
    """Run the spec through both backends; returns (train_out, graph_out)."""
    store = ParamStore(seed=7)
    if dtype == "float32":
        data = rng.normal(size=input_shape).astype(np.float32)
        x_train = Var(data)
    else:
        data = rng.integers(0, 10, size=input_shape).astype(np.int64)
        x_train = data
    train_out = run_arch(arch, x_train, TrainBackend(store, training=False))

    builder = GraphBuilder("exported")
    x = builder.input("input", (None,) + input_shape[1:], dtype)
    backend = ExportBackend(builder, store.export_arrays(), store.state)
    out = run_arch(arch, x, backend)
    builder.mark_output(out)
    graph = builder.finish()
    graph_out = Interpreter(graph).invoke_single(data)
    return train_out.data, graph_out, graph


BLOCKS = {
    "conv_bn_act": [conv("c", 6, stride=2)],
    "explicit_pad": [dwconv("d", stride=2)],
    "dwconv": [dwconv("d"), conv("p", 4, k=1)],
    "residual": [conv("c", 3, act="relu"),
                 residual("r", [conv("rc", 3, act="relu"),
                                conv("rc2", 3, act="linear")])],
    "residual_proj": [residual("r", [conv("rc", 8, stride=2, act="relu")],
                               shortcut=[conv("proj", 8, k=1, stride=2,
                                              act="linear")])],
    "se": [conv("c", 6, act="relu"), se_block("se")],
    "inception": [inception("i", [[conv("a", 3, k=1)],
                                  [conv("b", 4, k=3)],
                                  [avgpool("p", 3, 1, "same"),
                                   conv("pp", 2, k=1)]])],
    "dense_block": [dense_block("db", layers=2, growth=3)],
    "avgpool_full": [conv("c", 5), avgpool_full("pool"), flatten("f")],
    "head": [gap(), dense("logits", 4), softmax()],
    "segmentation": [conv("enc", 6, stride=2),
                     resize_nearest("up", 8, 8),
                     conv("cls", 3, k=1, act="linear", bn=False)],
    "in_graph_norm": [image_normalize("n", 2.0, -1.0), conv("c", 4)],
}


class TestTrainExportConsistency:
    @pytest.mark.parametrize("block", sorted(BLOCKS))
    def test_block_agrees_across_backends(self, rng, block):
        """Eval-mode training forward == exported checkpoint graph, per block
        type — the single-source-of-truth guarantee of the DSL."""
        train_out, graph_out, _ = train_then_export(
            BLOCKS[block], (2, 8, 8, 3), rng)
        np.testing.assert_allclose(train_out, graph_out, rtol=1e-4, atol=1e-5)

    def test_text_stack_agrees(self, rng):
        arch = [embedding("emb", vocab=10, dim=12),
                transformer_block("t", num_heads=3, ff_dim=16),
                mean_seq("pool"), dense("logits", 2), softmax()]
        train_out, graph_out, graph = train_then_export(arch, (3, 5), rng,
                                                        dtype="int64")
        np.testing.assert_allclose(train_out, graph_out, rtol=1e-4, atol=1e-5)
        assert any(n.op == "self_attention" for n in graph.nodes)

    def test_avgpool_full_exports_avg_pool_op(self, rng):
        _, _, graph = train_then_export(BLOCKS["avgpool_full"], (1, 8, 8, 3),
                                        rng)
        pool = graph.node("pool")
        assert pool.op == "avg_pool2d"
        assert graph.spec("pool").shape[1:3] == (1, 1)


class TestParamStore:
    def test_shape_conflict_rejected(self):
        store = ParamStore(0)
        store.get("w", (3, 4))
        with pytest.raises(GraphError):
            store.get("w", (4, 3))

    def test_deterministic_init(self):
        a = ParamStore(5).get("w", (4, 4)).data
        b = ParamStore(5).get("w", (4, 4)).data
        np.testing.assert_array_equal(a, b)

    def test_export_load_roundtrip(self):
        store = ParamStore(0)
        store.get("w", (2, 2))
        arrays = store.export_arrays()
        restored = ParamStore(1)
        restored.load_arrays(arrays)
        np.testing.assert_array_equal(restored.params["w"].data, arrays["w"])

    def test_unknown_init_rejected(self):
        with pytest.raises(GraphError):
            ParamStore(0).get("w", (2,), init="magic")

    def test_export_missing_param_helpful(self, rng):
        builder = GraphBuilder("g")
        x = builder.input("input", (None, 4, 4, 3))
        backend = ExportBackend(builder, {}, {})
        with pytest.raises(GraphError, match="missing trained parameter"):
            backend.conv(x, "c", 4, 3, 1, "same", use_bias=False)


class TestArchSignature:
    def test_nested_structures_covered(self):
        a = [residual("r", [conv("c", 4)])]
        b = [residual("r", [conv("c", 5)])]
        assert arch_signature(a) != arch_signature(b)

    def test_branches_covered(self):
        a = [inception("i", [[conv("a", 3)], [conv("b", 3)]])]
        b = [inception("i", [[conv("a", 3)], [conv("b", 4)]])]
        assert arch_signature(a) != arch_signature(b)
