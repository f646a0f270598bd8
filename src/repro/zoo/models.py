"""Micro model architectures mirroring the paper's model families.

Each function returns an architecture spec (list of
:class:`~repro.zoo.arch.Layer`). The micro versions keep the structural
motifs the paper's diagnoses hinge on:

* MobileNet v1 — depthwise-separable stacks;
* MobileNet v2 — inverted residuals whose **second layer is a depthwise
  conv** (the Figure 6 left rMSE spike location) and explicit Pad ops before
  stride-2 depthwise convs (the Table 4 "Pad" rows);
* MobileNet v3 — squeeze-excite blocks adding an **average-pool layer in
  every residual block** (the Figure 6 right rMSE peaks) plus hard-swish;
* Inception — parallel branches with mixed kernel sizes and a pooling branch
  (and a **BGR** input convention, the §3.2 channel-assertion example);
* ResNet — projection-shortcut residual stacks;
* DenseNet — concatenative dense blocks (the deepest graph, as in Table 3);
* SSD-lite / FRCNN-lite — grid detectors with class+box heads;
* Deeplab-lite — encoder + parallel-dilation-style ASPP + upsampling decoder;
* speech CNNs — two spectrogram classifiers from "different training
  pipelines" (different normalization conventions, Figure 4(c));
* NNLM-lite / micro-BERT — embedding-average and transformer sentiment
  models (appendix A);
* EffDet-lite — classifier with **in-graph preprocessing**, the appendix-A
  defence that "reduces the chance of having preprocessing bugs".
"""

from __future__ import annotations

from repro.zoo.arch import (
    Layer,
    act,
    avgpool,
    avgpool_full,
    conv,
    dense,
    dwconv,
    embedding,
    flatten,
    gap,
    image_normalize,
    inception,
    mean_seq,
    residual,
    resize_nearest,
    se_block,
    softmax,
    transformer_block,
)

IMAGE_SIZE = 32
IMAGE_CLASSES = 12
DETECTION_SIZE = 48
DETECTION_CLASSES = 4
SEGMENTATION_SIZE = 48
SEGMENTATION_CLASSES = 4
SPEECH_CLASSES = 8
TEXT_CLASSES = 2


def _inverted_residual(name: str, expand_ch: int | None, out_ch: int,
                       stride: int, use_residual: bool,
                       se: bool = False, act_fn: str = "relu6") -> list[Layer]:
    layers: list[Layer] = []
    if expand_ch:
        layers.append(conv(f"{name}_expand", expand_ch, k=1, act=act_fn))
    layers.append(dwconv(f"{name}_dw", stride=stride, act=act_fn))
    if se:
        layers.append(se_block(f"{name}_se"))
    layers.append(conv(f"{name}_project", out_ch, k=1, act="linear"))
    if use_residual:
        return [residual(name, layers)]
    return layers


def micro_mobilenet_v1() -> list[Layer]:
    """Depthwise-separable classifier (MobileNet v1 family)."""
    spec: list[Layer] = [conv("stem", 8, stride=2)]
    blocks = [("b1", 16, 1), ("b2", 24, 2), ("b3", 24, 1), ("b4", 32, 2)]
    for name, out_ch, stride in blocks:
        spec.append(dwconv(f"{name}_dw", stride=stride))
        spec.append(conv(f"{name}_pw", out_ch, k=1))
    spec += [gap(), dense("logits", IMAGE_CLASSES), softmax()]
    return spec


def micro_mobilenet_v2() -> list[Layer]:
    """Inverted-residual classifier (MobileNet v2 family)."""
    spec: list[Layer] = [conv("stem", 8, stride=2)]
    spec += _inverted_residual("b1", None, 12, 1, False)       # 2nd layer = dwconv
    spec += _inverted_residual("b2", 24, 12, 2, False)
    spec += _inverted_residual("b3", 24, 12, 1, True)
    spec += _inverted_residual("b4", 36, 16, 2, False)
    spec += _inverted_residual("b5", 48, 16, 1, True)
    spec += [conv("head", 48, k=1), gap(), dense("logits", IMAGE_CLASSES), softmax()]
    return spec


def micro_mobilenet_v3() -> list[Layer]:
    """SE + hard-swish inverted residuals (MobileNet v3 family)."""
    spec: list[Layer] = [conv("stem", 8, stride=2, act="hard_swish")]
    spec += _inverted_residual("b1", None, 12, 1, False, se=True, act_fn="relu")
    spec += _inverted_residual("b2", 24, 12, 2, False, se=True, act_fn="relu")
    spec += _inverted_residual("b3", 24, 12, 1, True, se=True, act_fn="hard_swish")
    spec += _inverted_residual("b4", 36, 16, 2, False, se=True, act_fn="hard_swish")
    # v3's "efficient last stage" pools with an explicit AveragePool2D (not
    # the Mean op v1/v2 export), and the ReLU head's non-negative range puts
    # the zero point at qmin — together these let the reference-kernel
    # avg-pool bug saturate the head pool into a constant tensor: the exact
    # 0%-accuracy, constant-output signature of Figure 5.
    spec += [conv("head", 48, k=1, act="relu"),
             avgpool_full("head_pool"), flatten("head_flat"),
             dense("logits", IMAGE_CLASSES), softmax()]
    return spec


def _inception_module(name: str, b1: int, b3: tuple[int, int],
                      b5: tuple[int, int], pool_proj: int) -> Layer:
    return inception(name, [
        [conv(f"{name}_1x1", b1, k=1, act="relu")],
        [conv(f"{name}_3x3r", b3[0], k=1, act="relu"),
         conv(f"{name}_3x3", b3[1], k=3, act="relu")],
        [conv(f"{name}_5x5r", b5[0], k=1, act="relu"),
         conv(f"{name}_5x5", b5[1], k=5, act="relu")],
        [avgpool(f"{name}_pool", 3, 1, "same"),
         conv(f"{name}_poolproj", pool_proj, k=1, act="relu")],
    ])


def micro_inception() -> list[Layer]:
    """Branch-and-concat classifier (Inception v3 family). Expects BGR input."""
    return [
        conv("stem", 12, stride=2, act="relu"),
        _inception_module("inc1", 8, (6, 12), (4, 8), 6),
        conv("reduce1", 24, stride=2, act="relu"),
        _inception_module("inc2", 10, (8, 16), (4, 8), 8),
        _inception_module("inc3", 12, (8, 16), (6, 10), 8),
        gap(),
        dense("logits", IMAGE_CLASSES),
        softmax(),
    ]


def micro_resnet() -> list[Layer]:
    """Projection-shortcut residual classifier (ResNet-50-v2 family)."""
    spec: list[Layer] = [conv("stem", 12, stride=2, act="relu")]

    def block(name: str, ch: int, stride: int) -> list[Layer]:
        body = [
            conv(f"{name}_c1", ch, stride=stride, act="relu"),
            conv(f"{name}_c2", ch, act="linear"),
        ]
        shortcut = None
        if stride != 1:
            shortcut = [conv(f"{name}_proj", ch, k=1, stride=stride, act="linear")]
        return [residual(name, body, shortcut), act(f"{name}_out", "relu")]

    for name, ch, stride in [("r1", 12, 1), ("r2", 16, 2), ("r3", 16, 1),
                             ("r4", 24, 2), ("r5", 24, 1), ("r6", 24, 1)]:
        spec += block(name, ch, stride)
    spec += [gap(), dense("logits", IMAGE_CLASSES), softmax()]
    return spec


def micro_densenet() -> list[Layer]:
    """Concatenative dense-block classifier (DenseNet-121 family)."""
    from repro.zoo.arch import dense_block
    return [
        conv("stem", 10, stride=2, act="relu"),
        dense_block("d1", layers=4, growth=6),
        conv("t1", 16, k=1, act="relu"),
        avgpool("t1_pool", 2, 2),
        dense_block("d2", layers=4, growth=6),
        conv("t2", 20, k=1, act="relu"),
        avgpool("t2_pool", 2, 2),
        dense_block("d3", layers=4, growth=6),
        gap(),
        dense("logits", IMAGE_CLASSES),
        softmax(),
    ]


def effdet_lite() -> list[Layer]:
    """Classifier with in-graph normalization: immune to the §2 scale bug."""
    spec: list[Layer] = [image_normalize("in_graph_norm", 2.0, -1.0)]
    spec += [conv("stem", 8, stride=2)]
    spec += _inverted_residual("b1", None, 12, 1, False)
    spec += _inverted_residual("b2", 24, 16, 2, False)
    spec += [conv("head", 32, k=1), gap(), dense("logits", IMAGE_CLASSES), softmax()]
    return spec


# ------------------------------------------------------------------ detection

def ssd_lite() -> list[Layer]:
    """Single-shot grid detector: 6x6 cells, (DETECTION_CLASSES + 1) logits
    + 4 box offsets per cell, concatenated channel-wise into one head
    tensor."""
    return [
        conv("stem", 8, stride=2, act="relu"),        # 48 -> 24
        conv("c2", 16, stride=2, act="relu"),          # 24 -> 12
        dwconv("c3_dw", act="relu"),
        conv("c3_pw", 24, k=1, act="relu"),
        conv("c4", 32, stride=2, act="relu"),          # 12 -> 6
        inception("heads", [
            [conv("head_cls", DETECTION_CLASSES + 1, k=1, act="linear", bn=False)],
            [conv("head_box", 4, k=1, act="linear", bn=False)],
        ]),
    ]


def frcnn_lite() -> list[Layer]:
    """Two-stage-style stand-in: heavier backbone + intermediate 'proposal'
    feature conv before the heads (plays FasterRCNN's role in Fig. 4(b))."""
    return [
        conv("stem", 12, stride=2, act="relu"),
        conv("c2", 16, act="relu"),
        conv("c3", 24, stride=2, act="relu"),
        conv("c4", 24, act="relu"),
        conv("c5", 32, stride=2, act="relu"),
        conv("rpn", 32, act="relu"),
        inception("heads", [
            [conv("head_cls", DETECTION_CLASSES + 1, k=1, act="linear", bn=False)],
            [conv("head_box", 4, k=1, act="linear", bn=False)],
        ]),
    ]


# --------------------------------------------------------------- segmentation

def deeplab_lite() -> list[Layer]:
    """Encoder + parallel-branch context module + upsample decoder."""
    return [
        conv("stem", 12, stride=2, act="relu"),        # 48 -> 24
        conv("enc2", 16, stride=2, act="relu"),         # 24 -> 12
        inception("aspp", [
            [conv("aspp_1x1", 8, k=1, act="relu")],
            [conv("aspp_3x3", 8, k=3, act="relu")],
            [conv("aspp_5x5", 8, k=5, act="relu")],
        ]),
        conv("fuse", 16, k=1, act="relu"),
        resize_nearest("upsample", SEGMENTATION_SIZE, SEGMENTATION_SIZE),
        conv("classifier", SEGMENTATION_CLASSES, k=1, act="linear", bn=False),
    ]


# ---------------------------------------------------------------------- audio

def speech_cnn_a() -> list[Layer]:
    """Spectrogram CNN from training pipeline A (global-dB normalization)."""
    return [
        conv("c1", 8, stride=2, act="relu"),
        conv("c2", 16, stride=2, act="relu"),
        dwconv("c3_dw", act="relu"),
        conv("c3_pw", 24, k=1, act="relu"),
        gap(),
        dense("logits", SPEECH_CLASSES),
        softmax(),
    ]


def speech_cnn_b() -> list[Layer]:
    """Spectrogram CNN from training pipeline B (per-utterance standardize)."""
    return [
        conv("c1", 12, stride=2, act="relu"),
        conv("c2", 12, stride=2, act="relu"),
        conv("c3", 20, act="relu"),
        gap(),
        dense("logits", SPEECH_CLASSES),
        softmax(),
    ]


# ----------------------------------------------------------------------- text

def nnlm_lite(vocab_size: int) -> list[Layer]:
    """Embedding-average sentiment model (NNLM family, appendix A)."""
    return [
        embedding("emb", vocab_size, 16),
        mean_seq("pool"),
        dense("h1", 16, act="relu"),
        dense("logits", TEXT_CLASSES),
        softmax(),
    ]


def micro_bert(vocab_size: int) -> list[Layer]:
    """Tiny transformer-encoder sentiment model (MobileBert family)."""
    return [
        embedding("emb", vocab_size, 24),
        transformer_block("t1", num_heads=3, ff_dim=48),
        transformer_block("t2", num_heads=3, ff_dim=48),
        mean_seq("pool"),
        dense("logits", TEXT_CLASSES),
        softmax(),
    ]
