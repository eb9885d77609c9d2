"""Dense pure states over the n-qubit computational basis.

Basis index convention: bit i of the index is the value of qubit i+1
(external labels are 1-based, internal bit positions 0-based).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

NORM_TOL = 1e-12


@dataclass(frozen=True)
class PureState:
    """Complex amplitude vector over the 2**n computational basis states."""

    n: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << self.n,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected ({1 << self.n},)"
            )
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def basis(cls, n: int, index: int) -> "PureState":
        amps = np.zeros(1 << n, dtype=np.complex128)
        amps[index] = 1.0
        return cls(n, amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def inner(self, other: "PureState") -> complex:
        """<self|other>."""
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def isclose(self, other: "PureState", tol: float = NORM_TOL) -> bool:
        return self.n == other.n and bool(
            np.allclose(self.amplitudes, other.amplitudes, atol=tol, rtol=0.0)
        )
