"""Flat parameter vectors with named, contiguous segments.

Every differentiable model in the package stores its weights in one
ParamVector; optimizer steps are plain vector arithmetic on it.
"""

from __future__ import annotations

import numpy as np


class NumericsError(ArithmeticError):
    """Raised when a computation produces NaN/Inf values."""


class ShapeError(ValueError):
    """Raised on input dimension mismatches."""


class ParamVector:
    """A float64 vector plus a segment map {name: (offset, length)}.

    Segments must be contiguous, non-overlapping and cover the full
    vector. Values are required to stay finite; mutating operations
    validate this.
    """

    def __init__(self, values: np.ndarray, layout: dict[str, tuple[int, int]]):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1:
            raise ShapeError(f"ParamVector values must be 1-D, got shape {values.shape}")
        self.values = values
        self.layout = dict(layout)
        self._check_layout()
        self.check_finite()

    @classmethod
    def from_segments(cls, segments: list[tuple[str, np.ndarray]]) -> "ParamVector":
        """Build a vector by concatenating (name, array) pairs in order."""
        layout = {}
        parts = []
        offset = 0
        for name, arr in segments:
            arr = np.asarray(arr, dtype=np.float64).ravel()
            layout[name] = (offset, arr.size)
            parts.append(arr)
            offset += arr.size
        values = np.concatenate(parts) if parts else np.zeros(0)
        return cls(values, layout)

    def _check_layout(self) -> None:
        spans = sorted(self.layout.values())
        pos = 0
        for offset, length in spans:
            if offset != pos or length < 0:
                raise ShapeError(f"segment layout not contiguous at offset {offset} (expected {pos})")
            pos = offset + length
        if pos != self.values.size:
            raise ShapeError(f"layout covers {pos} values but vector has {self.values.size}")

    def check_finite(self) -> None:
        if not np.all(np.isfinite(self.values)):
            raise NumericsError("ParamVector contains non-finite values")

    def segment(self, name: str) -> np.ndarray:
        """View (not copy) of the named segment."""
        offset, length = self.layout[name]
        return self.values[offset:offset + length]

    def set_segment(self, name: str, arr: np.ndarray) -> None:
        offset, length = self.layout[name]
        arr = np.asarray(arr, dtype=np.float64).ravel()
        if arr.size != length:
            raise ShapeError(f"segment {name!r} has length {length}, got {arr.size}")
        self.values[offset:offset + length] = arr
        self.check_finite()

    def replace_values(self, values: np.ndarray) -> None:
        """Overwrite all values in place (layout unchanged)."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != self.values.shape:
            raise ShapeError(f"expected shape {self.values.shape}, got {values.shape}")
        self.values[:] = values
        self.check_finite()

    @property
    def size(self) -> int:
        return self.values.size
