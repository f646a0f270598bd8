"""Injectable quantized-kernel bugs reproducing the paper's §4.4 findings.

ML-EXray's headline quantization result is that per-layer output drift
localizes two real TFLite kernel bugs:

* the **optimized** int8 DepthwiseConv2D kernel produced invalid output
  (MobileNet v2's 2nd layer / v3's 13th layer rMSE spike, Figure 6 left) —
  "different overflow behavior in the optimized kernel and the reference
  kernel";
* the **reference** int8 AveragePool kernel broke MobileNet v3
  (rMSE peaks at every squeeze-excite average-pool layer, Figure 6 right),
  driving accuracy to 0% with constant output.

Those bugs are long fixed upstream and TFLite is not available offline, so we
inject faithful analogues behind flags. **All flags default to off**: the
library's kernels are correct unless an experiment explicitly opts in.
Each flag acts in one kernel: the optimized depthwise accumulator, a
full-extent average pool's zero point (:func:`full_extent`), the pad fill.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class KernelBugs:
    """Flags enabling specific quantized-kernel misbehaviours.

    Attributes
    ----------
    dwconv_accumulator_bits:
        When set, the depthwise-conv kernel accumulates into a narrow
        integer of this many bits instead of int32, so dot products beyond
        the representable range wrap around — the overflow-behaviour bug
        class the paper attributes to the optimized kernel. ``None`` (the
        default) is the correct full-width accumulator. The paper-analogue
        configuration uses a width scaled into the micro models' accumulator
        distribution so the failure severity matches the paper's (invalid /
        constant output, 0% accuracy): real MobileNet depthwise accumulators
        routinely exceed int16, our scaled-down ones exceed int13.
    avgpool_zero_point_bug:
        The *full-extent* AveragePool2D kernel (output 1x1 — the pooling
        MobileNet v3 introduced in its SE blocks and efficient last stage)
        applies the output zero point with the wrong sign during
        requantization. With asymmetric int8 activations (zero point
        strongly negative after ReLU-family activations) every output
        saturates at qmax, so SE gates pin and the head pool emits a
        constant tensor — producing exactly the constant-output, 0%-accuracy
        failure the paper reports for quantized MobileNet v3 under the
        reference resolver. Windowed average pools and the ``Mean`` op
        (v1/v2 global pooling, Inception branch pools) have separate,
        correct kernels — which is why only v3 is affected, as in the paper.
    pad_ignores_zero_point:
        ``Pad`` fills with literal 0 instead of the zero point, biasing every
        border window (an extra, commonly-seen bug class used by the ablation
        bench).
    """

    dwconv_accumulator_bits: int | None = None
    avgpool_zero_point_bug: bool = False
    pad_ignores_zero_point: bool = False


def full_extent(out_shape) -> bool:
    """Whether an average pool with this NHWC output shape pools its whole
    input (a 1x1 output): the only pools
    :attr:`KernelBugs.avgpool_zero_point_bug` reaches."""
    return tuple(out_shape[1:3]) == (1, 1)


NO_BUGS = KernelBugs()
"""Correct kernels (the library default)."""

PAPER_OPTIMIZED_BUGS = KernelBugs(dwconv_accumulator_bits=13)
"""The bug the paper found in TFLite's *optimized* int8 kernels."""

PAPER_REFERENCE_BUGS = KernelBugs(avgpool_zero_point_bug=True)
"""The bug the paper found in TFLite's *reference* int8 kernels. It sits in
the average-pool kernel both backends share (they differ only in conv,
depthwise and dense), so it breaks MobileNet v3 under ``optimized`` too."""
