"""Exact n-qubit Pauli group arithmetic in the symplectic bit-mask form.

An operator is stored as ``i**phase * X(x_mask) * Z(z_mask)`` with
``phase`` in {0,1,2,3}. A Y factor on one qubit sets the qubit's bit in
both masks; since ``Y = i*X*Z`` per site, a bare Y string carries
``phase = #Y`` so that the displayed sign is ``+1``.

External qubit labels are 1-based (``X1`` acts on bit 0).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .states import PureState

_TOKEN = re.compile(r"([XYZ])([0-9]+)")


@dataclass(frozen=True)
class PauliOperator:
    n: int
    x_mask: int = 0
    z_mask: int = 0
    phase: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("qubit count must be nonnegative")
        full = (1 << self.n) - 1
        if self.x_mask & ~full or self.z_mask & ~full:
            raise ValueError("mask has bits set beyond the qubit count")
        object.__setattr__(self, "phase", self.phase % 4)

    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0 and self.phase == 0

    def is_x_type(self) -> bool:
        return self.z_mask == 0

    def is_z_type(self) -> bool:
        return self.x_mask == 0

    def __str__(self) -> str:
        return to_string(self)


def identity(n: int) -> PauliOperator:
    return PauliOperator(n)


def parse_pauli(text: str, n: int) -> PauliOperator:
    """Parse an operator string like ``"X1X2X3X4"`` on n qubits.

    The empty string is the identity. Raises ValueError on an unknown
    letter, an out-of-range index, a duplicate index, or trailing junk.
    """
    x = z = 0
    phase = 0
    pos = 0
    seen = set()
    for m in _TOKEN.finditer(text):
        if m.start() != pos:
            raise ValueError(f"cannot parse operator string {text!r}")
        pos = m.end()
        letter, label = m.group(1), int(m.group(2))
        if not 1 <= label <= n:
            raise ValueError(f"qubit index {label} out of range 1..{n}")
        if label in seen:
            raise ValueError(f"qubit index {label} repeated in {text!r}")
        seen.add(label)
        bit = 1 << (label - 1)
        if letter in ("X", "Y"):
            x |= bit
        if letter in ("Z", "Y"):
            z |= bit
        if letter == "Y":
            phase += 1
    if pos != len(text):
        raise ValueError(f"cannot parse operator string {text!r}")
    return PauliOperator(n, x, z, phase)


def to_string(a: PauliOperator) -> str:
    """Serialize with factors in ascending qubit order, identity sites omitted.

    A nontrivial overall phase is emitted as a ``+i``/``-``/``-i`` prefix.
    """
    parts = []
    n_y = 0
    for q in range(a.n):
        bit = 1 << q
        has_x = bool(a.x_mask & bit)
        has_z = bool(a.z_mask & bit)
        if has_x and has_z:
            parts.append(f"Y{q + 1}")
            n_y += 1
        elif has_x:
            parts.append(f"X{q + 1}")
        elif has_z:
            parts.append(f"Z{q + 1}")
    shown = (a.phase - n_y) % 4
    prefix = ("", "+i", "-", "-i")[shown]
    return prefix + "".join(parts)


def multiply(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """Exact group product a*b, phase included."""
    if a.n != b.n:
        raise ValueError("qubit count mismatch")
    # X(xa)Z(za) X(xb)Z(zb) = (-1)^{za.xb} X(xa^xb) Z(za^zb)
    phase = (a.phase + b.phase + 2 * ((a.z_mask & b.x_mask).bit_count() & 1)) % 4
    return PauliOperator(a.n, a.x_mask ^ b.x_mask, a.z_mask ^ b.z_mask, phase)


def commutes(a: PauliOperator, b: PauliOperator) -> bool:
    """Symplectic commutation test."""
    if a.n != b.n:
        raise ValueError("qubit count mismatch")
    par = (a.x_mask & b.z_mask).bit_count() + (a.z_mask & b.x_mask).bit_count()
    return par % 2 == 0


def weight(a: PauliOperator) -> int:
    """Number of qubits acted on non-trivially."""
    return (a.x_mask | a.z_mask).bit_count()


def basis_action(a: PauliOperator, indices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(images, phases) with a|i> = phases[j] |images[j]> for i = indices[j]."""
    signs = 1.0 - 2.0 * (
        np.bitwise_count(indices & np.uint64(a.z_mask)).astype(np.int64) & 1
    )
    return indices ^ np.uint64(a.x_mask), (1j) ** a.phase * signs


def apply(a: PauliOperator, s: PureState) -> PureState:
    """Exact state a|s>, global phase included."""
    if a.n != s.n:
        raise ValueError("operator acts on %d qubits, state has %d" % (a.n, s.n))
    images, phases = basis_action(a, np.arange(1 << a.n, dtype=np.uint64))
    out = np.zeros(1 << a.n, dtype=np.complex128)
    out[images] = phases * s.amplitudes
    return PureState(a.n, out)


def symplectic_vector(a: PauliOperator) -> int:
    """Sign-free (x | z<<n) encoding used by the GF(2) routines."""
    return a.x_mask | (a.z_mask << a.n)


def from_symplectic_vector(v: int, n: int) -> PauliOperator:
    return PauliOperator(n, v & ((1 << n) - 1), v >> n)
