"""Deterministic device performance model (latency + memory simulation)."""

from repro.perfmodel.device import (
    DEVICES,
    PIXEL3_CPU,
    PIXEL3_GPU,
    PIXEL4_CPU,
    PIXEL4_GPU,
    WORKSTATION,
    X86_EMULATOR,
    Device,
)
from repro.perfmodel.work import OP_CLASS, NodeWork, node_work

__all__ = [
    "DEVICES",
    "Device",
    "NodeWork",
    "OP_CLASS",
    "PIXEL3_CPU",
    "PIXEL3_GPU",
    "PIXEL4_CPU",
    "PIXEL4_GPU",
    "WORKSTATION",
    "X86_EMULATOR",
    "node_work",
]
