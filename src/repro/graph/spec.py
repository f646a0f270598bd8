"""Tensor specifications for graph inputs/outputs and intermediate values."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.quantize.params import QuantParams
from repro.util.errors import ShapeError

FLOAT_DTYPES = ("float32", "float64")
INT_DTYPES = ("int8", "uint8", "int16", "int32", "int64")
VALID_DTYPES = FLOAT_DTYPES + INT_DTYPES

Shape = tuple[int | None, ...]


@dataclass(frozen=True)
class TensorSpec:
    """Static description of one tensor flowing through a graph.

    Attributes
    ----------
    name:
        Unique tensor name within the graph.
    shape:
        Static shape; ``None`` entries are dynamic (typically the batch dim).
    dtype:
        Storage dtype name. Quantized graphs carry "int8"/"uint8" activations.
    quant:
        Quantization parameters when the tensor is quantized, else ``None``.
    """

    name: str
    shape: Shape
    dtype: str = "float32"
    quant: QuantParams | None = None

    def __post_init__(self) -> None:
        if self.dtype not in VALID_DTYPES:
            raise ShapeError(f"tensor {self.name!r}: unknown dtype {self.dtype!r}")
        object.__setattr__(self, "shape", tuple(
            None if d is None else int(d) for d in self.shape
        ))
        for d in self.shape:
            if d is not None and d < 0:
                raise ShapeError(f"tensor {self.name!r}: negative dim in {self.shape}")

    @property
    def is_quantized(self) -> bool:
        return self.quant is not None

    def check(self, array: np.ndarray) -> None:
        """Raise :class:`ShapeError` if ``array`` does not match this spec."""
        if array.ndim != len(self.shape):
            raise ShapeError(
                f"tensor {self.name!r}: rank {array.ndim} != spec rank "
                f"{len(self.shape)} (shape {array.shape} vs {self.shape})"
            )
        for got, want in zip(array.shape, self.shape):
            if want is not None and got != want:
                raise ShapeError(
                    f"tensor {self.name!r}: shape {array.shape} != spec {self.shape}"
                )

    def numel(self, batch: int = 1) -> int:
        """Element count with dynamic dims bound to ``batch``."""
        n = 1
        for d in self.shape:
            n *= batch if d is None else d
        return n

    def nbytes(self, batch: int = 1) -> int:
        """Storage size in bytes with dynamic dims bound to ``batch``."""
        return self.numel(batch) * np.dtype(self.dtype).itemsize

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "shape": list(self.shape),
            "dtype": self.dtype,
            "quant": self.quant.to_json() if self.quant else None,
        }

    @classmethod
    def from_json(cls, data: dict) -> "TensorSpec":
        quant = QuantParams.from_json(data["quant"]) if data.get("quant") else None
        return cls(
            name=data["name"],
            shape=tuple(data["shape"]),
            dtype=data["dtype"],
            quant=quant,
        )
