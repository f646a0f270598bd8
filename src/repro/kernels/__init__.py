"""Float numpy kernels for every op the runtime executes.

Layout conventions: images are NHWC; conv filters are (kh, kw, Cin, Cout);
depthwise filters are (kh, kw, C, multiplier); dense weights are (in, out) —
all matching TensorFlow, since the models we reproduce were TF/TFLite models.

Quantized integer kernels live in :mod:`repro.kernels.quantized`.
"""

from repro.kernels.activations import (
    ACTIVATIONS,
    gelu,
    hard_sigmoid,
    hard_swish,
    relu,
    relu6,
    sigmoid,
    softmax,
    tanh,
)
from repro.kernels.attention import (
    embedding_lookup,
    matmul,
    merge_heads,
    scaled_dot_product_attention,
    split_heads,
)
from repro.kernels.conv import conv2d, depthwise_conv2d
from repro.kernels.dense import dense
from repro.kernels.elementwise import (
    add,
    concat,
    flatten,
    mul,
    pad2d,
    reshape,
    resize_nearest,
    sub,
)
from repro.kernels.norm import batch_norm, layer_norm
from repro.kernels.pool import avg_pool2d, global_avg_pool, max_pool2d

__all__ = [
    "ACTIVATIONS",
    "add",
    "avg_pool2d",
    "batch_norm",
    "concat",
    "conv2d",
    "dense",
    "depthwise_conv2d",
    "embedding_lookup",
    "flatten",
    "gelu",
    "global_avg_pool",
    "hard_sigmoid",
    "hard_swish",
    "layer_norm",
    "matmul",
    "max_pool2d",
    "merge_heads",
    "mul",
    "pad2d",
    "relu",
    "relu6",
    "reshape",
    "resize_nearest",
    "scaled_dot_product_attention",
    "sigmoid",
    "softmax",
    "split_heads",
    "sub",
    "tanh",
]
