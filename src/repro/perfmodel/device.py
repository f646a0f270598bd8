"""Simulated edge-device latency/memory profiles.

The paper measures on Pixel 4 / Pixel 3 phones (ARM CPU + Adreno GPU) and an
x86 Android emulator. Those devices are not available here, so latency is
produced by a deterministic cost model: per-(device, op-class, dtype,
resolver) coefficients applied to each node's MAC/element counts.

Coefficients are calibrated so that the micro-MobileNet-v2 workload
reproduces the *shape* of the paper's Table 4 and Table 2:

* reference kernels are 2-3 orders of magnitude slower than optimized ones
  on conv/dwconv/pad/add, but FC and Mean barely differ;
* quantized conv is *slower* than float conv on the ARM CPU, while quantized
  depthwise conv is ~4x faster than float depthwise conv;
* the x86 emulator is ~44x slower on conv (ARM-specific optimizations do not
  transfer) yet comparable on depthwise conv and faster on Mean;
* GPUs give ~7x end-to-end speedups on float models (Table 2), and Pixel 3
  is a constant factor slower than Pixel 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.errors import ReproError

# (ns per MAC, ns per element) for ("float"|"int8", "optimized"|"reference"),
# per op class. Classes absent from a device table fall back to DEFAULT_ROW.
_Coeff = dict[tuple[str, str], tuple[float, float]]

_DEFAULT_ROW: _Coeff = {
    ("float", "optimized"): (30.0, 4.0),
    ("float", "reference"): (30.0, 8.0),
    ("int8", "optimized"): (30.0, 4.0),
    ("int8", "reference"): (30.0, 8.0),
}

# Pixel 4 big-core ARM CPU (values in ns/MAC and ns/element).
_PIXEL4_CPU: dict[str, _Coeff] = {
    "conv": {
        ("float", "optimized"): (28.0, 0.0),
        ("float", "reference"): (9000.0, 0.0),
        ("int8", "optimized"): (39.0, 0.0),
        ("int8", "reference"): (22400.0, 0.0),
    },
    "dwconv": {
        ("float", "optimized"): (235.0, 0.0),
        ("float", "reference"): (7200.0, 0.0),
        ("int8", "optimized"): (56.0, 0.0),
        ("int8", "reference"): (7100.0, 0.0),
    },
    "fc": {
        ("float", "optimized"): (56.0, 0.0),
        ("float", "reference"): (54.0, 0.0),
        ("int8", "optimized"): (53.5, 0.0),
        ("int8", "reference"): (53.0, 0.0),
    },
    "mean": {
        ("float", "optimized"): (120.0, 12.0),
        ("float", "reference"): (100.0, 10.0),
        ("int8", "optimized"): (110.0, 11.0),
        ("int8", "reference"): (98.0, 10.0),
    },
    "pool": {
        ("float", "optimized"): (12.0, 4.0),
        ("float", "reference"): (120.0, 40.0),
        ("int8", "optimized"): (10.0, 4.0),
        ("int8", "reference"): (110.0, 38.0),
    },
    "pad": {
        ("float", "optimized"): (0.0, 1.9),
        ("float", "reference"): (0.0, 36.0),
        ("int8", "optimized"): (0.0, 22.0),
        ("int8", "reference"): (0.0, 72.0),
    },
    "add": {
        ("float", "optimized"): (0.0, 1.3),
        ("float", "reference"): (0.0, 43.0),
        ("int8", "optimized"): (0.0, 6.7),
        ("int8", "reference"): (0.0, 87.0),
    },
    "softmax": {
        ("float", "optimized"): (0.0, 40.0),
        ("float", "reference"): (0.0, 30.0),
        ("int8", "optimized"): (0.0, 4.0),
        ("int8", "reference"): (0.0, 4.0),
    },
    "act": {
        ("float", "optimized"): (0.0, 1.0),
        ("float", "reference"): (0.0, 8.0),
        ("int8", "optimized"): (0.0, 1.0),
        ("int8", "reference"): (0.0, 4.0),
    },
    "quantize": {
        ("float", "optimized"): (0.0, 6.0),
        ("float", "reference"): (0.0, 1.3),
        ("int8", "optimized"): (0.0, 6.0),
        ("int8", "reference"): (0.0, 1.3),
    },
    "reshape": {
        ("float", "optimized"): (0.0, 0.05),
        ("float", "reference"): (0.0, 0.05),
        ("int8", "optimized"): (0.0, 0.05),
        ("int8", "reference"): (0.0, 0.05),
    },
    "embed": _DEFAULT_ROW,
    "attention": {
        ("float", "optimized"): (30.0, 0.0),
        ("float", "reference"): (3000.0, 0.0),
        ("int8", "optimized"): (40.0, 0.0),
        ("int8", "reference"): (4000.0, 0.0),
    },
}


def _scaled(base: dict[str, _Coeff], factor: float) -> dict[str, _Coeff]:
    return {
        cls: {key: (m * factor, e * factor) for key, (m, e) in row.items()}
        for cls, row in base.items()
    }


# x86 emulator for Pixel 4: ARM-specific kernels do not transfer. Conv is
# ~44x slower, dwconv comparable (120 vs 95.4ms in Table 4), FC ~10x,
# Mean actually faster (2.5 vs 6.1ms), pad/add intermediate.
_X86_EMULATOR: dict[str, _Coeff] = dict(_PIXEL4_CPU)
_X86_EMULATOR.update({
    "conv": {
        ("float", "optimized"): (28.0 * 60.0, 0.0),
        ("float", "reference"): (9000.0 * 3.0, 0.0),
        ("int8", "optimized"): (39.0 * 40.0, 0.0),
        ("int8", "reference"): (22400.0, 0.0),
    },
    "dwconv": {
        ("float", "optimized"): (295.0, 0.0),
        ("float", "reference"): (7200.0, 0.0),
        ("int8", "optimized"): (170.0, 0.0),
        ("int8", "reference"): (7100.0, 0.0),
    },
    "fc": {
        ("float", "optimized"): (540.0, 0.0),
        ("float", "reference"): (530.0, 0.0),
        ("int8", "optimized"): (520.0, 0.0),
        ("int8", "reference"): (515.0, 0.0),
    },
    "mean": {
        ("float", "optimized"): (48.0, 5.0),
        ("float", "reference"): (44.0, 4.0),
        ("int8", "optimized"): (46.0, 5.0),
        ("int8", "reference"): (42.0, 4.0),
    },
    "pad": {
        ("float", "optimized"): (0.0, 124.0),
        ("float", "reference"): (0.0, 250.0),
        ("int8", "optimized"): (0.0, 124.0),
        ("int8", "reference"): (0.0, 250.0),
    },
    "add": {
        ("float", "optimized"): (0.0, 6.1),
        ("float", "reference"): (0.0, 85.0),
        ("int8", "optimized"): (0.0, 12.0),
        ("int8", "reference"): (0.0, 120.0),
    },
})


@dataclass(frozen=True)
class Device:
    """A simulated execution environment for the edge runtime.

    Attributes
    ----------
    name:
        Human-readable device name used in logs and benchmark tables.
    kind:
        "cpu", "gpu", or "emulator" — GPUs do not run int8 models here
        (matching the paper's setup, which quantizes for CPU/EdgeTPU and runs
        fp16/fp32 on Adreno GPUs).
    coeffs:
        Per-op-class coefficient table.
    per_node_overhead_ms:
        Fixed dispatch overhead charged to every node.
    base_memory_mb:
        Resident memory of the bare app/runtime before model allocations
        (calibrated against Table 2's uninstrumented rows).
    """

    name: str
    kind: str
    coeffs: dict[str, _Coeff]
    per_node_overhead_ms: float = 0.0015
    base_memory_mb: float = 6.0

    def supports(self, dtype_class: str) -> bool:
        """Whether this device can execute the given dtype class."""
        return not (self.kind == "gpu" and dtype_class == "int8")

    def layer_latency_ms(
        self,
        op_class: str,
        dtype_class: str,
        resolver_kind: str,
        macs: int,
        elements: int,
    ) -> float:
        """Simulated latency of one node, in milliseconds.

        ``resolver_kind`` is "optimized" or "reference" — the two coefficient
        rows (see ``ExecutionPlan.latency_resolver_kind``).
        """
        if dtype_class not in ("float", "int8"):
            raise ReproError(f"unknown dtype class {dtype_class!r}")
        if resolver_kind not in ("optimized", "reference"):
            raise ReproError(f"unknown resolver kind {resolver_kind!r}")
        if not self.supports(dtype_class):
            raise ReproError(
                f"device {self.name!r} ({self.kind}) does not support "
                f"{dtype_class} execution"
            )
        row = self.coeffs.get(op_class, _DEFAULT_ROW)
        ns_mac, ns_elem = row.get(
            (dtype_class, resolver_kind), _DEFAULT_ROW[(dtype_class, resolver_kind)]
        )
        return self.per_node_overhead_ms + (macs * ns_mac + elements * ns_elem) * 1e-6


PIXEL4_CPU = Device("Pixel 4 (CPU)", "cpu", _PIXEL4_CPU, base_memory_mb=6.42)
PIXEL4_GPU = Device(
    "Pixel 4 (GPU, Adreno 640)", "gpu", _scaled(_PIXEL4_CPU, 0.118),
    per_node_overhead_ms=0.012, base_memory_mb=6.42,
)
PIXEL3_CPU = Device("Pixel 3 (CPU)", "cpu", _scaled(_PIXEL4_CPU, 1.225),
                    base_memory_mb=9.26)
PIXEL3_GPU = Device(
    "Pixel 3 (GPU, Adreno 630)", "gpu", _scaled(_PIXEL4_CPU, 0.208),
    per_node_overhead_ms=0.014, base_memory_mb=9.26,
)
X86_EMULATOR = Device("Android emulator (x86)", "emulator", _X86_EMULATOR,
                      base_memory_mb=14.0)
WORKSTATION = Device(
    "Workstation (i7 + GeForce 3070)", "cpu", _scaled(_PIXEL4_CPU, 0.02),
    per_node_overhead_ms=0.0005, base_memory_mb=40.0,
)

DEVICES: dict[str, Device] = {
    "pixel4_cpu": PIXEL4_CPU,
    "pixel4_gpu": PIXEL4_GPU,
    "pixel3_cpu": PIXEL3_CPU,
    "pixel3_gpu": PIXEL3_GPU,
    "x86_emulator": X86_EMULATOR,
    "workstation": WORKSTATION,
}
