"""Computed candidate counts for the two distance searches in rhombuscode.engine.

Both ``distance_symplectic`` (serial path) and ``distance_kl_oracle`` scan
candidates in one documented order:

* by weight w = 1, 2, ..., w_max;
* within a weight, supports in ``itertools.combinations(range(n), w)``
  order (lexicographic on 0-based qubit indices);
* within a support, letters in ``itertools.product("XYZ", repeat=w)``
  order (the lowest qubit's letter varies slowest).

A search stops at its witness, so the number of candidates it examined
follows from the witness's position in that order. The counts are derived,
not observed inside the program, and are reported as "computed".
"""

from __future__ import annotations

from math import comb
from typing import List, Optional, Sequence, Tuple

LETTERS = "XYZ"


def letters_of(x_mask: int, z_mask: int, n: int) -> List[Tuple[int, str]]:
    """(0-based qubit, letter) for every qubit the sign-free Pauli acts on."""
    out = []
    for q in range(n):
        has_x = (x_mask >> q) & 1
        has_z = (z_mask >> q) & 1
        if has_x and has_z:
            out.append((q, "Y"))
        elif has_x:
            out.append((q, "X"))
        elif has_z:
            out.append((q, "Z"))
    return out


def pauli_text(x_mask: int, z_mask: int, n: int) -> str:
    """Sign-free operator string with 1-based labels, e.g. ``Z1Z2``."""
    return "".join(f"{letter}{q + 1}" for q, letter in letters_of(x_mask, z_mask, n))


def candidates_of_weight(n: int, w: int) -> int:
    return comb(n, w) * 3**w


def support_rank(support: Sequence[int], n: int) -> int:
    """0-based position of a sorted support among combinations(range(n), w)."""
    w = len(support)
    rank = 0
    prev = -1
    for i, q in enumerate(support):
        for skipped in range(prev + 1, q):
            rank += comb(n - 1 - skipped, w - 1 - i)
        prev = q
    return rank


def letter_rank(letters: Sequence[str]) -> int:
    """0-based position of a letter tuple in product("XYZ", repeat=w)."""
    rank = 0
    for letter in letters:
        rank = 3 * rank + LETTERS.index(letter)
    return rank


def candidates_scanned(
    n: int, w_max: int, distance: Optional[int], x_mask: int = 0, z_mask: int = 0
) -> int:
    """Candidates a search examined, its witness included.

    ``distance`` None means the search found nothing up to ``w_max`` and
    examined every candidate of weight 1..w_max.
    """
    if distance is None:
        return sum(candidates_of_weight(n, w) for w in range(1, w_max + 1))
    below = sum(candidates_of_weight(n, w) for w in range(1, distance))
    pairs = letters_of(x_mask, z_mask, n)
    if len(pairs) != distance:
        raise ValueError(f"witness weight {len(pairs)} != distance {distance}")
    support = [q for q, _ in pairs]
    letters = [letter for _, letter in pairs]
    return (
        below
        + support_rank(support, n) * 3**distance
        + letter_rank(letters)
        + 1
    )
