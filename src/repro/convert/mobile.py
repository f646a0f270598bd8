"""Checkpoint → mobile conversion: the "FlatBuffer export" analogue.

Composes the standard inference optimizations the paper describes in §2:
batch-norm folding, activation fusion, and dead-node elimination. The result
is the "Mobile" (optimized 32-bit float) deployment stage of Figure 5;
quantization (:mod:`repro.convert.quantize_graph`) builds on its output.
"""

from __future__ import annotations

from repro.convert.eliminate_dead import eliminate_dead_nodes
from repro.convert.fold_batch_norm import fold_batch_norm
from repro.convert.fuse_activations import fuse_activations
from repro.graph.graph import Graph

MOBILE_PASSES = (fold_batch_norm, fuse_activations, eliminate_dead_nodes)


def convert_to_mobile(graph: Graph) -> Graph:
    """Run all conversion passes; returns the deployable float model.

    Every pass lints its own post-conditions, so a conversion bug is pinned
    to the pass that introduced it rather than surfacing as a downstream
    execution failure.
    """
    out = graph
    for pass_fn in MOBILE_PASSES:
        out = pass_fn(out)
    out.metadata["stage"] = "mobile"
    return out
