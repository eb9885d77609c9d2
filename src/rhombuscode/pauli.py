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
from typing import List, Sequence, Tuple

import numpy as np

from .states import PureState

_TOKEN = re.compile(r"([XYZ])([0-9]+)")
_PREFIXES = (("+i", 1), ("-i", 3), ("-", 2))  # to_string's overall phases


@dataclass(frozen=True)
class PauliOperator:
    n: int
    x_mask: int = 0
    z_mask: int = 0
    phase: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("qubit count must be nonnegative")
        if self.x_mask >> self.n or self.z_mask >> self.n:  # also true for a negative mask
            raise ValueError("mask has bits set beyond the qubit count")
        object.__setattr__(self, "phase", self.phase % 4)

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

    An optional ``+i``/``-``/``-i`` prefix is the overall phase, as
    to_string writes it, so ``parse_pauli(to_string(a), a.n) == a``. The
    empty string is the identity. Raises ValueError on an unknown letter, an
    out-of-range index, a duplicate index, or trailing junk.
    """
    x = z = phase = pos = 0
    if text[:1] in "+-":
        phase, pos = next(((shown, len(p)) for p, shown in _PREFIXES if text.startswith(p)), (0, 0))
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


_LABELS: Tuple[List[str], List[str], List[str]] = ([], [], [])  # X, Z, Y; index q: qubit q + 1


def to_string(a: PauliOperator) -> str:
    """Serialize with factors in ascending qubit order, identity sites omitted.

    A nontrivial overall phase is emitted as a ``+i``/``-``/``-i`` prefix.
    Only the support is visited, so the cost is linear in the weight: the
    masks are shifted down to their lowest support qubit (small ints), and
    each factor is read from per-qubit label tables, grown on first need.
    """
    x, z = a.x_mask, a.z_mask
    both = x | z
    x_labels, z_labels, y_labels = _LABELS
    if len(y_labels) < both.bit_length():  # Y grows last, so all three are long enough
        for letter, table in zip("XZY", _LABELS):
            table.extend(f"{letter}{q}" for q in range(len(table) + 1, both.bit_length() + 1))
    parts = []
    if both:
        base = (both & -both).bit_length() - 1
        rest, x, z = both >> base, x >> base, z >> base
        pure = z_labels if not x else x_labels if not z else None
        base -= 1
        while rest:
            low = rest & -rest
            table = pure or (z_labels if not x & low else y_labels if z & low else x_labels)
            parts.append(table[base + low.bit_length()])
            rest ^= low
    shown = (a.phase - (a.x_mask & a.z_mask).bit_count()) % 4
    return ("", "+i", "-", "-i")[shown] + "".join(parts)


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


def _qubits(mask: int) -> List[int]:
    """The set bits of a nonnegative mask as 0-based qubits, ascending. The
    mask is shifted down to its lowest set bit once, so each step works on a
    small int however high the support sits."""
    qubits: List[int] = []
    if mask:
        base = (mask & -mask).bit_length() - 1
        rest = mask >> base
        while rest:
            low = rest & -rest
            qubits.append(base + low.bit_length() - 1)
            rest ^= low
    return qubits


def qubit_columns(ops: Sequence[PauliOperator], n: int) -> Tuple[List[int], List[int]]:
    """The n-qubit ops transposed to per-qubit masks over the operators: bit
    g of x_cols[q] (z_cols[q]) is set when ops[g] carries X or Y (Z or Y) on
    qubit q. Costs O(total weight) big-int updates."""
    if any(a.n != n for a in ops):
        raise ValueError("qubit count mismatch")
    x_cols, z_cols = [0] * n, [0] * n
    for g, a in enumerate(ops):
        bit = 1 << g
        for q in _qubits(a.x_mask):
            x_cols[q] |= bit
        for q in _qubits(a.z_mask):
            z_cols[q] |= bit
    return x_cols, z_cols


def weight(a: PauliOperator) -> int:
    """Number of qubits acted on non-trivially."""
    return (a.x_mask | a.z_mask).bit_count()


def basis_action(a: PauliOperator, indices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(images, phases) with a|i> = phases[j] |images[j]> for i = indices[j]."""
    odd = np.bitwise_count(indices & np.uint64(a.z_mask)) & 1
    return indices ^ np.uint64(a.x_mask), ((1j) ** a.phase * np.array([1.0, -1.0]))[odd]


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
