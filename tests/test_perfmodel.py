"""Performance-model tests: work counting and the Table-4 latency shape."""

import numpy as np
import pytest

from repro.perfmodel import (
    DEVICES,
    PIXEL3_CPU,
    PIXEL4_CPU,
    PIXEL4_GPU,
    WORKSTATION,
    X86_EMULATOR,
    node_work,
)
from repro.perfmodel.work import OP_CLASS
from repro.util.errors import ReproError


class TestWorkCounting:
    def test_conv_macs_formula(self, small_cnn):
        node = small_cnn.node("stem")
        work = node_work(small_cnn, node, batch=1)
        # 4x4 output spatial x 3x3 kernel x 3 in x 8 out
        assert work.macs == 4 * 4 * 3 * 3 * 3 * 8

    def test_depthwise_macs(self, small_cnn):
        work = node_work(small_cnn, small_cnn.node("dw"), batch=1)
        assert work.macs == 4 * 4 * 3 * 3 * 8

    def test_dense_macs(self, small_cnn):
        work = node_work(small_cnn, small_cnn.node("logits"), batch=1)
        assert work.macs == 8 * 4

    def test_batch_scales_macs(self, small_cnn):
        w1 = node_work(small_cnn, small_cnn.node("stem"), batch=1)
        w4 = node_work(small_cnn, small_cnn.node("stem"), batch=4)
        assert w4.macs == 4 * w1.macs

    def test_elementwise_has_no_macs(self, small_cnn):
        work = node_work(small_cnn, small_cnn.node("res_add"), batch=1)
        assert work.macs == 0 and work.elements > 0

    def test_every_op_classified(self):
        from repro.graph.node import OP_TYPES
        assert set(OP_TYPES) <= set(OP_CLASS)


class TestLatencyShape:
    """The relative orderings §4.5 / Table 4 report, encoded as invariants."""

    MACS = 1_000_000

    def lat(self, device, op, dtype, resolver):
        return device.layer_latency_ms(op, dtype, resolver, self.MACS, 10_000)

    def test_reference_conv_orders_of_magnitude_slower(self):
        opt = self.lat(PIXEL4_CPU, "conv", "int8", "optimized")
        ref = self.lat(PIXEL4_CPU, "conv", "int8", "reference")
        assert ref > 100 * opt

    def test_quantized_conv_slower_than_float_conv(self):
        f = self.lat(PIXEL4_CPU, "conv", "float", "optimized")
        q = self.lat(PIXEL4_CPU, "conv", "int8", "optimized")
        assert q > f  # Table 4(a): 32.3ms vs 23.5ms

    def test_quantized_dwconv_faster_than_float_dwconv(self):
        f = self.lat(PIXEL4_CPU, "dwconv", "float", "optimized")
        q = self.lat(PIXEL4_CPU, "dwconv", "int8", "optimized")
        assert q < f / 2  # Table 4(b): 22.7ms vs 95.4ms

    def test_fc_insensitive_to_resolver(self):
        opt = self.lat(PIXEL4_CPU, "fc", "int8", "optimized")
        ref = self.lat(PIXEL4_CPU, "fc", "int8", "reference")
        assert 0.8 < ref / opt < 1.2  # Table 4: 7.1 vs 7.0

    def test_x86_conv_much_slower_than_arm(self):
        arm = self.lat(PIXEL4_CPU, "conv", "float", "optimized")
        x86 = self.lat(X86_EMULATOR, "conv", "float", "optimized")
        assert x86 > 40 * arm  # §4.5(d): "44x slower on normal convolution"

    def test_x86_dwconv_comparable(self):
        arm = self.lat(PIXEL4_CPU, "dwconv", "float", "optimized")
        x86 = self.lat(X86_EMULATOR, "dwconv", "float", "optimized")
        assert x86 < 2 * arm  # Table 4: 120 vs 95.4

    def test_x86_mean_faster(self):
        arm = self.lat(PIXEL4_CPU, "mean", "float", "optimized")
        x86 = self.lat(X86_EMULATOR, "mean", "float", "optimized")
        assert x86 < arm  # Table 4: 2.5 vs 6.1

    def test_gpu_faster_than_cpu(self):
        cpu = self.lat(PIXEL4_CPU, "conv", "float", "optimized")
        gpu = self.lat(PIXEL4_GPU, "conv", "float", "optimized")
        assert gpu < cpu / 4  # Table 2: 16.7 vs 128.2 end-to-end

    def test_pixel3_slower_than_pixel4(self):
        p4 = self.lat(PIXEL4_CPU, "conv", "float", "optimized")
        p3 = self.lat(PIXEL3_CPU, "conv", "float", "optimized")
        assert 1.1 < p3 / p4 < 1.4  # Table 2: 157 vs 128

    def test_workstation_fastest(self):
        ws = self.lat(WORKSTATION, "conv", "float", "optimized")
        assert ws < self.lat(PIXEL4_GPU, "conv", "float", "optimized")


class TestDeviceContracts:
    def test_registry_complete(self):
        assert {"pixel4_cpu", "pixel4_gpu", "pixel3_cpu", "pixel3_gpu",
                "x86_emulator", "workstation"} <= set(DEVICES)

    def test_gpu_rejects_int8(self):
        assert not PIXEL4_GPU.supports("int8")
        with pytest.raises(ReproError):
            PIXEL4_GPU.layer_latency_ms("conv", "int8", "optimized", 10, 10)

    def test_invalid_dtype_class(self):
        with pytest.raises(ReproError):
            PIXEL4_CPU.layer_latency_ms("conv", "fp16", "optimized", 10, 10)

    def test_invalid_resolver_kind(self):
        with pytest.raises(ReproError):
            PIXEL4_CPU.layer_latency_ms("conv", "float", "fancy", 10, 10)

    def test_unknown_op_class_uses_default(self):
        ms = PIXEL4_CPU.layer_latency_ms("exotic", "float", "optimized", 100, 100)
        assert ms > 0

    def test_latency_monotonic_in_work(self):
        a = PIXEL4_CPU.layer_latency_ms("conv", "float", "optimized", 100, 0)
        b = PIXEL4_CPU.layer_latency_ms("conv", "float", "optimized", 10000, 0)
        assert b > a
