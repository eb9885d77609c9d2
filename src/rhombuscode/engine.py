"""Codewords, logical operator synthesis/verification, and code distance.

Distance is computed by two independent routes:

* a symplectic search over sign-free Paulis (zero syndrome, outside the
  stabilizer group), and
* an error-discrimination oracle that evaluates the codeword matrix
  M_ij = <psi_i|E|psi_j> over explicit codeword amplitudes and flags any
  E for which M is not a scalar multiple of the identity.

Both routes share one serial candidate scan (_scan_weight): by weight
w = 1, 2, ..., supports in itertools.combinations(range(n), w) order,
letters in itertools.product("XYZ", repeat=w) order, first hit wins.
Both must agree; verification never trusts declared parameters.

Every method reads one GF(2) tableau per code (lattice._Tableau, built on
first use and kept on the CodeSpec): the echelon of the stabilizer rows in
symplectic form, and the per-qubit check columns, whose XOR over an
operator's support is its syndrome. Pivots are lowest bits and the codes are
CSS, so that one echelon is the X-type echelon followed by the Z-type one
shifted by n, and logical synthesis reads both blocks from it: the stabilizer
rows are reduced once per code.

One sparse codeword type, _SparseCodewords, builds the codeword support and
amplitudes by one doubling routine, _states, over the X-stabilizers and then
the X-logicals (each Z-stabilizer only rescales the orbit), so in this
coordinate order codeword p >> m_x owns position p. How a Pauli acts on
states written so, state p the set of generators chosen by the bits of p,
is one _Translation: p goes to p ^ a, a the coordinates of its x-mask in one
tagged echelon of the generators, with the sign (-1)^|p & t|, t the parity
of its z-mask against their x-columns. _SparseCodewords is one; the
dephasing frame builds one over its generators and runs _states on them
written in index space (generator b: x-mask 2^b), so it lists no qubit mask.
_SparseCodewords serves the KL oracle and the tests' S-state references;
codeword_zero is its dense embedding. The oracle evaluates M from the
explicit amplitudes, each column read from a Walsh-Hadamard spectrum
(_walsh) of the amplitude products, computed once per X-shift and cached: a
candidate costs O(2^k) after its shift's first O(S m_x).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import gf2, pauli
from .gf2 import _set_bits
from .lattice import CodeSpec
from .pauli import PauliOperator, apply, basis_action, commutes, multiply, to_string
from .states import PureState

KL_TOL = 1e-10
EXHAUSTIVE_COSET_CAP = 1 << 20
KL_MAX_QUBITS = 20  # largest n the codeword-matrix oracle accepts
SPECTRUM_CACHE_BYTES = 64 << 20  # bound on the spectra one _SparseCodewords keeps
SYNTHESIS_MAX_QUBITS = 24  # largest n verify synthesizes logicals for and family checks


@dataclass(frozen=True)
class LogicalSet:
    """Pairs of anticommuting logical representatives, one pair per encoded qubit."""

    pairs: Tuple[Tuple[PauliOperator, PauliOperator], ...]
    certified_minimal: bool = True

    @property
    def k(self) -> int:
        return len(self.pairs)


@dataclass
class VerificationReport:
    commuting: bool
    rank: int
    k: int
    distance: Optional[int] = None
    witness: Optional[str] = None
    logical_violations: List[str] = field(default_factory=list)
    degenerate: List[str] = field(default_factory=list)

    @property
    def logicals_ok(self) -> bool:
        return not self.logical_violations and not self.degenerate

    def to_json(self) -> str:
        doc = {
            "commuting": self.commuting,
            "rank": self.rank,
            "k": self.k,
            "distance": self.distance,
            "witness": self.witness,
            "logical_violations": self.logical_violations + self.degenerate,
        }
        return json.dumps(doc, indent=2) + "\n"


def stabilizer_rank(code: CodeSpec) -> int:
    """GF(2) rank of the stabilizer generators in symplectic form."""
    return code._tableau.rank


def require_independent(code: CodeSpec) -> int:
    """Return k = n - m, raising when the generators are dependent."""
    rank = code._tableau.rank
    if rank != code.m:
        raise ValueError(f"dependent stabilizer generators: rank {rank} < count {code.m}")
    return code.n - rank


# --- codewords --------------------------------------------------------------


def codeword_zero(code: CodeSpec) -> PureState:
    """|0_L> as a dense 2^n vector: the embedding of _SparseCodewords(code, ())."""
    words = _SparseCodewords(code, ())
    dense = np.zeros(1 << code.n, dtype=np.complex128)
    dense[words.support] = words.amps
    return PureState(code.n, dense)


def logical_basis_state(
    code: CodeSpec, logicals: LogicalSet, bits: str
) -> PureState:
    """Apply the X-logicals selected by bits (bits[i] pairs with pairs[i])."""
    if len(bits) != logicals.k:
        raise ValueError(f"bit string length {len(bits)} != k = {logicals.k}")
    op = pauli.identity(code.n)
    for bit, (xbar, _) in zip(bits, logicals.pairs):
        if bit == "1":
            op = multiply(op, xbar)
        elif bit != "0":
            raise ValueError("bits must be a 0/1 string")
    return apply(op, codeword_zero(code))


# --- logical-set verification and synthesis ---------------------------------


def verify_logical_set(code: CodeSpec, logicals: LogicalSet) -> VerificationReport:
    """Check commutation with stabilizers, pairwise anticommutation, and
    flag representatives lying inside the stabilizer group."""
    tableau = code._tableau
    report = VerificationReport(
        commuting=not any(map(tableau.syndrome, code.stabilizers)),
        rank=tableau.rank,
        k=code.n - tableau.rank,
    )
    pairs = logicals.pairs
    for i, (xbar, zbar) in enumerate(pairs, start=1):
        for name, op in (("Xbar", xbar), ("Zbar", zbar)):
            for low in _set_bits(tableau.syndrome(op)):
                report.logical_violations.append(
                    f"{name}{i}={to_string(op)} anticommutes with stabilizer "
                    f"{to_string(code.stabilizers[low.bit_length() - 1])}"
                )
            if not gf2.reduce_against(pauli.symplectic_vector(op), *tableau.echelon):
                report.degenerate.append(
                    f"{name}{i}={to_string(op)} lies in the stabilizer group"
                )
    for i in range(len(pairs)):
        for j in range(len(pairs)):
            want_anti = i == j
            got_anti = not commutes(pairs[i][0], pairs[j][1])
            if got_anti != want_anti:
                verb = "commutes" if want_anti else "anticommutes"
                report.logical_violations.append(
                    f"Xbar{i + 1} {verb} with Zbar{j + 1}"
                )
        for j in range(i + 1, len(pairs)):
            if not commutes(pairs[i][0], pairs[j][0]):
                report.logical_violations.append(
                    f"Xbar{i + 1} anticommutes with Xbar{j + 1}"
                )
            if not commutes(pairs[i][1], pairs[j][1]):
                report.logical_violations.append(
                    f"Zbar{i + 1} anticommutes with Zbar{j + 1}"
                )
    return report


def _quotient_basis(kernel: List[int], reduced: List[int], pivots: List[int]) -> List[int]:
    """Basis vectors of kernel that are independent modulo the span of the
    echelon (reduced, pivots); a copy of the echelon grows as they are found."""
    reduced, pivots, out = list(reduced), list(pivots), []
    for v in kernel:
        rem = gf2.reduce_against(v, reduced, pivots)
        if rem:
            out.append(v)
            # rem is zero at every earlier pivot, so append order stays valid
            reduced.append(rem)
            pivots.append((rem & -rem).bit_length() - 1)
    return out


def _min_weight_coset_rep(mask: int, group_rows: List[int]) -> int:
    """Lowest-weight (then smallest) element of mask + span(rows). The coset
    is walked in Gray-code order, one XOR per step; the (weight, value)
    order makes the result independent of the visiting order."""
    best = v = mask
    for r in range(1, 1 << len(group_rows)):
        v ^= group_rows[(r & -r).bit_length() - 1]
        if (v.bit_count(), v) < (best.bit_count(), best):
            best = v
    return best


def find_logical_set(code: CodeSpec) -> LogicalSet:
    """Deterministic CSS logical-pair synthesis.

    X representatives come from ker(H_Z) modulo rowspace(H_X) and Z
    representatives from ker(H_X) modulo rowspace(H_Z), H_X and H_Z the
    blocks of the tableau's echelon; the Z basis is then re-mixed over
    GF(2) so the pairing matrix is the identity.
    Representatives are weight-minimized over their stabilizer coset when
    the exhaustive scan is affordable: the X and Z walks together visit
    (2^|H_X| + 2^|H_Z|) k cosets, at most EXHAUSTIVE_COSET_CAP, else no
    representative is minimized and certified_minimal is False.
    """
    k, n = require_independent(code), code.n
    reduced, pivots = code._tableau.echelon
    split = sum(p < n for p in pivots)
    h_x, h_z = reduced[:split], [r >> n for r in reduced[split:]]
    x_pivots, z_pivots = pivots[:split], [p - n for p in pivots[split:]]
    lx = _quotient_basis(gf2.nullspace(h_z, z_pivots, n), h_x, x_pivots)
    lz = _quotient_basis(gf2.nullspace(h_x, x_pivots, n), h_z, z_pivots)
    if len(lx) != k or len(lz) != k:
        raise ValueError("logical space dimension mismatch (non-CSS input?)")

    pairing = [
        sum(((lx[i] & lz[j]).bit_count() & 1) << j for j in range(k))
        for i in range(k)
    ]
    inv = gf2.invert(pairing, k)
    lz_paired = []
    for i in range(k):
        v = 0
        for j in range(k):
            if (inv[j] >> i) & 1:
                v ^= lz[j]
        lz_paired.append(v)

    certified = ((1 << len(h_x)) + (1 << len(h_z))) * k <= EXHAUSTIVE_COSET_CAP
    if certified:
        lx = [_min_weight_coset_rep(v, h_x) for v in lx]
        lz_paired = [_min_weight_coset_rep(v, h_z) for v in lz_paired]

    pairs = tuple(
        (PauliOperator(code.n, x_mask=x), PauliOperator(code.n, z_mask=z))
        for x, z in zip(lx, lz_paired)
    )
    result = LogicalSet(pairs, certified_minimal=certified)
    report = verify_logical_set(code, result)
    if not report.logicals_ok:
        raise AssertionError(
            "internal error: synthesized logicals fail verification: "
            + "; ".join(report.logical_violations + report.degenerate)
        )
    return result


# --- distance ---------------------------------------------------------------


def _pauli_of(support: Sequence[int], letters: Sequence[str], n: int) -> PauliOperator:
    """The sign-free Pauli with letters[i] on qubit support[i]."""
    x = z = 0
    for q, letter in zip(support, letters):
        bit = 1 << q
        if letter in ("X", "Y"):
            x |= bit
        if letter in ("Z", "Y"):
            z |= bit
    return PauliOperator(n, x, z, 0)


def _scan_weight(
    n: int, w: int, accept: Callable[[Tuple[int, ...], Tuple[str, ...]], bool]
) -> Optional[Tuple[Tuple[int, ...], Tuple[str, ...]]]:
    """First weight-w (support, letters) that accept takes, in scan order."""
    for support in itertools.combinations(range(n), w):
        for letters in itertools.product("XYZ", repeat=w):
            if accept(support, letters):
                return support, letters
    return None


def _first_accepted(
    n: int, w_max: int, accept: Callable[[Tuple[int, ...], Tuple[str, ...]], bool]
) -> Tuple[Optional[int], Optional[PauliOperator]]:
    """(weight, Pauli) of the first candidate accept takes, weights 1..w_max;
    no n-qubit Pauli has weight above n, so the scan stops there."""
    if w_max < 1:
        raise ValueError("w_max must be >= 1")
    for w in range(1, min(w_max, n) + 1):
        hit = _scan_weight(n, w, accept)
        if hit is not None:
            return w, _pauli_of(*hit, n)
    return None, None


def distance_symplectic(
    code: CodeSpec, w_max: int
) -> Tuple[Optional[int], Optional[PauliOperator]]:
    """Minimum weight of a zero-syndrome Pauli outside the stabilizer group.

    Returns (distance, witness) or (None, None) when no witness of weight
    <= w_max exists. Candidates are scanned serially in one order: by
    weight, then supports in itertools.combinations(range(n), w) order,
    then letters in itertools.product("XYZ", repeat=w) order; the witness
    is the first hit. Syndromes and the group test read the code's tableau.
    """
    require_independent(code)
    n, single, echelon = code.n, code._tableau.single, code._tableau.echelon

    def undetected_logical(support, letters) -> bool:
        syn = 0
        for q, letter in zip(support, letters):
            syn ^= single[letter][q]
        if syn:
            return False
        vec = pauli.symplectic_vector(_pauli_of(support, letters, n))
        return gf2.reduce_against(vec, *echelon) != 0

    return _first_accepted(n, w_max, undetected_logical)


# --- error-discrimination (codeword matrix) oracle ---------------------------


def _seed(code: CodeSpec) -> complex:
    """The scalar prod (1 + i^phase) by which the Z-type stabilizers' (I + S)
    scale |0...0> (each commutes with every X-type generator, so it scales
    the whole orbit). ValueError when the generators are dependent or when
    one (I + S) annihilates |0...0>."""
    require_independent(code)
    seed = 1.0 + 0.0j
    for s in code.stabilizers:
        if not s.x_mask:
            seed *= 1 + (1j) ** s.phase
            if seed == 0:
                raise ValueError(f"projector (I + {to_string(s)}) annihilates the seed state")
    return seed


def _states(
    generators: Sequence[PauliOperator], start: Optional[Tuple[np.ndarray, np.ndarray]] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """(masks, amps) of the basis states the products of generators reach
    from the states of start, (masks, amps), by one doubling pass (default:
    |0...0> with amplitude 1, giving 2^len(generators) states): with m
    states in start, state m 2^b + p is generators[b] applied to state p
    (basis_action: i^phase (-1)^|mask & z| times amps[p]), so from the
    default start state i is the XOR of the x-masks of the generators
    chosen by the bits of i, a uint64 mask. The dephasing frame runs it on
    generators written in index space (generator b: x-mask 2^b), where
    mask i is i itself."""
    masks, amps = start or (np.zeros(1, dtype=np.uint64), np.ones(1, dtype=np.complex128))
    for g in generators:
        images, phases = basis_action(g, masks)
        masks, amps = np.concatenate([masks, images]), np.concatenate([amps, phases * amps])
    return masks, amps


def _walsh(f: np.ndarray, bits: int) -> np.ndarray:
    """F[..., s] = sum_r f[..., r] (-1)^popcount(r & s) over the last axis,
    of 2^bits entries: the unnormalised Walsh-Hadamard transform, one
    butterfly on bit 0 of r per pass (that bit moves to the top). f is
    overwritten; the result is f or a new array of its shape."""
    g, half = np.empty_like(f), f.shape[-1] // 2
    for _ in range(bits):
        np.add(f[..., 0::2], f[..., 1::2], out=g[..., :half])
        np.subtract(f[..., 0::2], f[..., 1::2], out=g[..., half:])
        f, g = g, f
    return f


class _Translation:
    """How a Pauli acts on the states of independent generators (n-qubit
    Paulis), state p being the XOR of the x-masks of the generators chosen
    by the bits of p: op maps state p to state p ^ coordinate(op.x_mask)
    with the sign (-1)^popcount(p & parity(op.z_mask)) times i^phase. It
    keeps one tagged echelon of the x-masks, the per-qubit x-columns over
    the generators (columns[q], bit j set when generator j has an X on
    qubit q) and the coordinates of every x-mask asked for. ValueError
    ("coset collision") when the x-masks are dependent. The KL oracle's
    _SparseCodewords is one; the dephasing frame keeps one over its
    generators."""

    def __init__(self, generators: Sequence[PauliOperator], n: int):
        # bit n + j tags generator j, so a reduced x-mask keeps its coordinates there
        tagged = [g.x_mask | 1 << (n + j) for j, g in enumerate(generators)]
        self._echelon = gf2.row_reduce(tagged, n + len(generators))
        if any(col >= n for col in self._echelon[1]):
            raise ValueError("codeword basis not orthonormal (coset collision)")
        self.n, self.columns = n, pauli.qubit_columns(generators, n)[0]
        self._coordinates = {}  # x-mask -> coordinates, or None outside the span

    def coordinate(self, x_mask: int) -> Optional[int]:
        """a with state p ^ x_mask = state p ^ a for all p; None off the span."""
        if x_mask not in self._coordinates:
            rem = gf2.reduce_against(x_mask, *self._echelon)
            self._coordinates[x_mask] = None if rem & ((1 << self.n) - 1) else rem >> self.n
        return self._coordinates[x_mask]

    def parity(self, z_mask: int) -> int:
        """t with popcount(state p & z_mask) = popcount(p & t) mod 2 for all
        p: bit j set when generator j meets z_mask on an odd number of qubits."""
        t = 0
        for low in _set_bits(z_mask):
            t ^= self.columns[low.bit_length() - 1]
        return t


class _SparseCodewords(_Translation):
    """The 2^len(xbars) codewords of a code on their common support.

    support[p] is the XOR of the generator x-masks (the m_x X-stabilizers,
    then the xbars) chosen by the bits of p, with amplitude amps[p], in
    codeword p >> m_x (bit i set: xbars[i] applied); the first 2^m_x states
    hold |0_L> = prod_i (I + S_i)|0...0>, normalized, stabilizer phases
    included. Independent generators (dependent ones raise) make the
    codewords orthonormal cosets; a Pauli acts on them as _Translation says.
    """

    def __init__(self, code: CodeSpec, xbars: Sequence[PauliOperator]):
        if code.n > 64:
            raise ValueError(f"basis indices are uint64: codewords need n <= 64, got n = {code.n}")
        seed = _seed(code)
        for xbar in xbars:
            syndrome = code._tableau.syndrome(xbar)
            if syndrome:
                s = code.stabilizers[(syndrome & -syndrome).bit_length() - 1]
                raise ValueError(
                    f"Xbar {to_string(xbar)} anticommutes with stabilizer "
                    f"{to_string(s)}: its shifted orbit is not a codeword"
                )
        generators = [s for s in code.stabilizers if s.x_mask] + list(xbars)
        super().__init__(generators, code.n)
        self.m_x, self.count = len(generators) - len(xbars), 1 << len(xbars)
        empty = (np.zeros(1, dtype=np.uint64), np.full(1, seed))  # seed |0...0>
        support, amps = _states(generators[: self.m_x], start=empty)
        amps /= np.linalg.norm(amps)  # |0_L>, normalized before the xbars shift it
        self.support, self.amps = _states(xbars, start=(support, amps))
        self.position = np.arange(len(self.support))
        self._spectra = {}  # coordinates a -> _spectrum(a), oldest first

    def _spectrum(self, a: int) -> np.ndarray:
        """F[j, s] = sum_r conj(amps[p ^ a]) amps[p] (-1)^popcount(r & s), p =
        j 2^m_x + r: the unnormalised Walsh-Hadamard transform of each block,
        cached per a up to SPECTRUM_CACHE_BYTES, oldest evicted first."""
        f = self._spectra.get(a)
        if f is None:
            f = self.amps[self.position ^ a]
            np.conj(f, out=f)
            f *= self.amps
            f = _walsh(f.reshape(self.count, -1), self.m_x)
            if f.nbytes <= SPECTRUM_CACHE_BYTES:
                while (len(self._spectra) + 1) * f.nbytes > SPECTRUM_CACHE_BYTES:
                    del self._spectra[next(iter(self._spectra))]
                self._spectra[a] = f
        return f

    def column(self, op: PauliOperator) -> Optional[np.ndarray]:
        """c[j] = <psi_(j ^ (a >> m_x))|op|psi_j> = i^phase (-1)^popcount(j & t_hi)
        F_a[j, t_lo], t = parity(op.z_mask) split at bit m_x; None off the span."""
        a = self.coordinate(op.x_mask)
        if a is None:
            return None
        t = self.parity(op.z_mask)
        t_lo, t_hi = t & ((1 << self.m_x) - 1), t >> self.m_x
        odd = np.bitwise_count(self.position[: self.count] & t_hi) & 1
        return (1j) ** op.phase * (1.0 - 2.0 * odd) * self._spectrum(a)[:, t_lo]

    def violates_kl(self, op: PauliOperator) -> bool:
        """True iff M_ij = <psi_i|op|psi_j> is not a scalar multiple of I.

        op maps codeword j onto j ^ (a >> m_x), so column j of M has one
        entry, column(op)[j], read from the spectrum of the shift a (M is
        still evaluated from the explicit amplitudes); M = 0 off the span.
        """
        column = self.column(op)
        if column is None:
            return False
        scalar = 0.0 if self.coordinate(op.x_mask) >> self.m_x else column[0]
        return bool(np.max(np.abs(column - scalar)) > KL_TOL)


def distance_kl_oracle(
    code: CodeSpec, logicals: LogicalSet, w_max: int
) -> Tuple[Optional[int], Optional[PauliOperator]]:
    """Distance from the first Pauli E, in distance_symplectic's scan order,
    that breaks the scalar-identity structure of the codeword matrix."""
    if code.n > KL_MAX_QUBITS:
        raise ValueError(f"codeword-matrix oracle is capped at n <= {KL_MAX_QUBITS}")
    words = _SparseCodewords(code, [xbar for xbar, _ in logicals.pairs])
    return _first_accepted(
        code.n,
        w_max,
        lambda support, letters: words.violates_kl(_pauli_of(support, letters, code.n)),
    )


# --- end-to-end verification -------------------------------------------------


def verify_code(
    code: CodeSpec,
    w_max: int = 4,
    use_kl: bool = False,
) -> VerificationReport:
    """Full report: commutativity, rank/k, logical set, distance.

    Uses the code's own logical pairs when present, otherwise synthesizes
    a set when n permits; a set of other than k pairs is a violation. The
    codeword-matrix oracle, when requested, runs on the code's pairs when
    they are k X-type pairs, else on a synthesized set, and must agree
    exactly with the symplectic search.
    """
    logicals = None
    if code.logical_pairs is not None:
        logicals = LogicalSet(code.logical_pairs)
    elif code.n <= SYNTHESIS_MAX_QUBITS:
        logicals = find_logical_set(code)
    report = verify_logical_set(code, logicals or LogicalSet(()))
    complete = logicals is not None and len(logicals.pairs) == report.k
    if logicals is not None and not complete:
        count = len(logicals.pairs)
        report.logical_violations.append(
            f"{count} logical pair{'' if count == 1 else 's'} given, k = {report.k}"
        )
    d, witness = distance_symplectic(code, w_max)
    report.distance = d
    report.witness = to_string(witness) if witness is not None else None
    if use_kl:
        kl_logicals = logicals
        if not complete or not all(x.is_x_type() for x, _ in logicals.pairs):
            kl_logicals = find_logical_set(code)
        d_kl, _ = distance_kl_oracle(code, kl_logicals, w_max)
        if d_kl != d:
            raise AssertionError(
                f"distance methods disagree: symplectic {d} vs codeword-matrix {d_kl}"
            )
    return report
