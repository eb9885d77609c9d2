"""Logical-qubit observables under global and local Gaussian dephasing.

Everything is computed on one frame: the codewords of the designated
logical pair (the first one, checked by engine.verify_logical_set), listed
per component of their generators, the X-type stabilizers and Xbar
(_components, one join per qubit column: on a qubit where some generator
has an X, every generator with an X or a Z there). Across components the
generators act on disjoint qubits, so the codeword support of S =
2^(m_x + 1) states is the XOR of one state per component. State i of a
component is the set of its generators chosen by the bits of i; its
qubit mask, the XOR of their x-masks, is never listed. A logical Pauli
maps state i to i ^ shift with the sign (-1)^|i & t|, shift and t read
from one tagged echelon and the qubits' x-columns by engine._Translation,
which the KL oracle shares, and the amplitudes come from engine._states,
the one doubling routine, run on the generators written in index space.
Qubits enter only through their classes (equal nonzero x-columns): the
popcount of state i is the sum of the class sizes whose column meets i an
odd number of times. So a component may span any number of qubits, and
the support itself is never formed: the frame, the engine and both
kernels cost sum_c 2^m_c, so codes past 64 qubits (grid:4 and up) and
supports far past 2^18 (lshape:6,6, S = 2^34) run. Dephasing multiplies
each support state by a phase u[a], and every observable is a quadratic
form in u with fixed coefficients, one row per logical Pauli (Xbar, Ybar,
Zbar).

Each logical Pauli maps coset k of the support onto coset k ^ 1 (Xbar, Ybar:
coset-flipping) or onto itself (Zbar), and the code-space operator is diagonal
there, so each form has two nonzero entries F_k, k the column. A verified
logical Pauli maps |k_L> onto a phase times |k'_L>, and every codeword
amplitude has the modulus sqrt(2/S), so the frame keeps per Pauli o one
coefficient coef[o, k] per coset (a product of one factor per component),
and one weight, 2/S: with s its x-shift (state c goes to c ^ s), Bloch F_k =
coef[o, k] sum_{c in k} conj(u[c ^ s]) u[c], leakage F_k = pc weight
coef[o, k] conj(P_{k ^ flip}) P_k, with the coset sums P_k = sum_{c in k}
u[c]. So the forms need only the P_k and, per distinct shift, the quadratic
sums (shift 0, Zbar's unless it is dressed, gives the state count).
_combine makes them G = F_0 + conj(F_1) (coset-flipping) or Re F_0 + i Re
F_1, and a point (theta, phi) reads v = Re(y G), y from _point_weights. The
Monte Carlo oracle samples u (the phase accumulated over time t is
Normal(0, gamma*t)); batches keep the sums of D, D^2 and |D|^2, D = G -
G_ref (G at u = 1), so every point follows in closed form. Under local
noise _CosetKernel builds u per sample on the components: u is a product
over them, so each of those sums is a product of per-component sums and a
sample costs sum_c 2^m_c states. A common phase cancels in every form, so
each component takes its spins relative to its own state 0, where u is 1
and no phase is computed. Qubits touched by the same generators (equal
x-columns) enter the phases only through the sum of their normals, and a
sum of m i.i.d. normals is one normal times sqrt(m): a sample draws one
standard normal per such class of qubits, not n, and a qubit touched by no
generator draws none. A class's spin on state i is the parity of i and
its column, so each component keeps only its classes' columns and its
shifts, not a list of states. Xbar is the top bit of its component, so
the cosets are that component's halves, and each component's u is built from small
tables of phases (its first MC_DIRECT states, then each generator's
distinct spin changes), in sub-chunks of 2 MC_CHUNK phase factors (MC_CHUNK
under global noise), rounded down to an even number of samples. Under
global noise one normal drives every phase, each form is a trigonometric
polynomial of degree K in it, and _PhasorKernel folds its coefficients from
the frame's weight enumerators and builds only K phasors and D from them
per sample, a cost of samples x K; it multiplies only the rows of its
matrix that are not identically zero. Both kernels get their phases as
e^{2ih} - 1 from one SIMD tan of each half-angle h (_phase_minus_one); no
per-sample sin or cos remains. Both draw their standard normals by
Box-Muller from PCG64 uniforms (_normals: SIMD log, sqrt and that tan).
Neither kernel calls BLAS.
Time enters only as the scale of the normals, so the frame builds one kernel
per noise kind, and monte_carlo_grid runs a whole t grid in one pass with one
thread pool: each sub-chunk draws its standard normals once and every t
scales the same draws, so the draws are shared across the t grid and each t
gets the records a one-element grid would. Batches read the stream at
offsets set by their first sample (_stream: PCG64's advance, which counts
one 64-bit draw per double, times a stride of the normals per sample
rounded up to even), so any thread count reproduces the serial result bit
for bit; the even stride keeps the one extra uniform of an odd last
sub-chunk inside the batch's range. The analytic engine, _Frame.expected,
returns E[G] (G_ref at t = 0), the exact expectation of that estimator:
E[conj(u_p) u_q] is _damping of the two basis states' distance (popcount
difference for global noise, Hamming distance for local), summed through
weight enumerators (MacWilliams & Sloane, ch. 5), each the convolution of
one popcount histogram per component, and multiplied by the per-coset
constants. The frame checks at build, once for the engine and both
kernels, that each component's factors are constant per coset and that the
part G drops (F_1 - conj(F_0), Im F_k) is zero, as the forms are Hermitian.
The dense O(2^n) references prepare_logical_state,
dephased_pauli_expectation and code_space_operator serve the tests. The
thread pool loads on the first monte_carlo_grid call, not on import;
nothing here needs scipy.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
import os
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from . import pauli
from .engine import LogicalSet, _seed, _states, _Translation, _walsh, verify_logical_set
from .engine import codeword_zero  # noqa: F401  perfbench/test_perfbench.py needs it
from .gf2 import _set_bits
from .lattice import CodeSpec
from .pauli import PauliOperator, basis_action, multiply
from .pauli import apply  # noqa: F401  perfbench/test_perfbench.py needs it
from .states import PureState

KINDS = ("global", "local")
REALNESS_TOL = 1e-10
MC_BATCH = 1 << 16  # samples per Monte Carlo batch on frames of <= 32 component states
MC_CHUNK = 1 << 14  # phase factors per global-noise sub-chunk, twice that under local (L2-sized)
MC_DIRECT = 8  # component states whose local-noise phases need no doubling step


@dataclass(frozen=True)
class NoiseModel:
    """Dephasing kind, strength gamma = <B(0)^2>, and an exponent multiplier.

    convention rescales the decay exponent (and the Monte Carlo phase
    variance to match); the default 1 is the first-principles engine.
    """

    kind: str
    gamma: float
    convention: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if not 0 <= self.gamma < math.inf:
            raise ValueError("gamma must be finite and nonnegative")
        if not 0 < self.convention < math.inf:
            raise ValueError("convention must be finite and positive")


@dataclass(frozen=True)
class ObservableRecord:
    """One sample of logical Bloch coordinates and leakage expectations."""

    t: float
    r_x: float
    r_y: float
    r_z: float
    p_x: float
    p_y: float
    p_z: float
    se_r_x: Optional[float] = None
    se_r_y: Optional[float] = None
    se_r_z: Optional[float] = None
    se_p_x: Optional[float] = None
    se_p_y: Optional[float] = None
    se_p_z: Optional[float] = None

    def values(self) -> Tuple[float, ...]:
        return (self.r_x, self.r_y, self.r_z, self.p_x, self.p_y, self.p_z)

    def errors(self) -> Tuple[Optional[float], ...]:
        return (
            self.se_r_x,
            self.se_r_y,
            self.se_r_z,
            self.se_p_x,
            self.se_p_y,
            self.se_p_z,
        )


def _popcount(index) -> np.ndarray:
    """Set bits of basis indices (an int or a uint64 array), as int64."""
    return np.bitwise_count(np.asarray(index, dtype=np.uint64)).astype(np.int64)


def magnetization(index, n: int):
    """2*(number of 0 bits) - n for basis indices (an int or a uint64 array)."""
    return n - 2 * _popcount(index)


def _exponent(model: NoiseModel, t: float) -> float:
    """c gamma t, c the convention, the phase variance after time t;
    ValueError for a t outside [0, inf) or a product that is not finite."""
    if not 0 <= t < math.inf:
        raise ValueError("t must be finite and nonnegative")
    gt = model.convention * model.gamma * t
    if not math.isfinite(gt):
        raise ValueError("convention * gamma * t must be finite")
    return gt


def _damping(distance, model: NoiseModel, t: float):
    """e^{-distance c gamma t / 2} elementwise: the damping after time t of a
    density-matrix element whose two basis states lie distance apart (their
    Hamming distance under local noise, their popcount difference squared
    under global noise). This is the one place the damping formula is
    written; the engine and decoherence_factor call it."""
    return np.exp(-distance * _exponent(model, t) / 2.0)


def decoherence_factor(a, b, model: NoiseModel, t: float, n: int):
    """Damping of the (a, b) density-matrix element after time t, elementwise
    over basis indices (ints or uint64 arrays); the dense reference calls it."""
    if model.kind == "global":
        dm = (magnetization(a, n) - magnetization(b, n)) // 2
        return _damping(dm * dm, model, t)
    return _damping(_popcount(a ^ b), model, t)


def prepare_logical_state(
    theta: float, phi: float, zero_l: PureState, one_l: PureState
) -> PureState:
    """cos(theta/2)|0_L> + e^{i phi} sin(theta/2)|1_L>."""
    if zero_l.n != one_l.n:
        raise ValueError("basis states act on different qubit counts")
    for s in (zero_l, one_l):
        if abs(s.norm() - 1.0) > 1e-12:
            raise ValueError("basis states must be normalized")
    if abs(zero_l.inner(one_l)) > 1e-12:
        raise ValueError("basis states must be orthogonal")
    amps = (
        math.cos(theta / 2.0) * zero_l.amplitudes
        + np.exp(1j * phi) * math.sin(theta / 2.0) * one_l.amplitudes
    )
    return PureState(zero_l.n, amps)


def dephased_pauli_expectation(
    state: PureState, op: PauliOperator, model: NoiseModel, t: float
) -> complex:
    """Tr[rho' op] for the dephased density matrix of state, in O(2^n)."""
    if op.n != state.n:
        raise ValueError("operator and state qubit counts differ")
    psi = state.amplitudes
    idx = np.arange(1 << state.n, dtype=np.uint64)
    flipped, phases = basis_action(op, idx)
    factors = decoherence_factor(flipped, idx, model, t, state.n)
    return complex((np.conj(psi[flipped]) * phases * psi * factors).sum())


def code_space_operator(
    code: CodeSpec, normalization: str = "paper"
) -> List[Tuple[float, PauliOperator]]:
    """Expansion of prod_i (I + P_i) into 2^m weighted Pauli terms.

    normalization 'paper' divides by 2^n, 'projector' by 2^m (the latter
    makes the operator an idempotent projector).
    """
    if normalization not in ("paper", "projector"):
        raise ValueError("normalization must be 'paper' or 'projector'")
    m = code.m
    if m > 16:
        raise ValueError(f"expansion of 2^{m} terms is too large")
    coeff = 2.0 ** (-code.n) if normalization == "paper" else 2.0 ** (-m)
    terms = []
    for picks in itertools.product((0, 1), repeat=m):
        term = pauli.identity(code.n)
        for pick, s in zip(picks, code.stabilizers):
            if pick:
                term = multiply(term, s)
        terms.append((coeff, term))
    return terms


class _Frame:
    """The codewords of the designated logical pair, component by component,
    and the constants and weight enumerators of their forms.

    generators holds the X-type stabilizers, then Xbar, and components
    partitions their indices as _components does, Xbar's component first.
    Across components the generators act on disjoint qubits, so the codeword
    support of |0_L> and |1_L> is the XOR of one state per component (state
    i of a component: the set of its generators chosen by the bits of i,
    Xbar the top bit, so the halves of Xbar's component are the cosets,
    coset k holding |k_L>) and every amplitude is a product of one unit per
    component times sqrt(2/S), S = 2^len(generators). size, the sum of the
    2^m_c, is every state the frame or a kernel lists; the S-state support
    is never formed, and no qubit mask is. translation, the
    engine._Translation of the generators (one tagged echelon), and
    classes, the qubit classes (x-column over the generators, qubits), by
    lowest qubit, serve every component: _listing lists each one's
    amplitudes and signs once, here, and parts keeps per component only its
    classes and shifts, (fields, columns, sizes, shifts), which the kernels
    read. For L in paulis (Xbar, Ybar = i*Zbar*Xbar, Zbar), index o, L maps
    state i of a component to i ^ s (s the coordinates of its x-mask there)
    with sign (-1)^|i & t| (t the parity of its z-mask there; and i^phase
    once), and L maps coset k onto k ^ flipping[o] (flipping: the top bit
    of s on Xbar's component). Its factor
    conj(a[i ^ s]) sign[i] a[i] on a component, a its units, must be one
    constant on each coset there, and coef[o, k] is i^phase times the
    product of those factors times weight, 2/S (0 for an L whose x-mask
    leaves the generators' span).
    With Pc = pc (|0_L><0_L| + |1_L><1_L|) on the support, pc = 2^(m-n), a
    phase vector u gives (sums over the states c of coset k; every other
    (j, k) entry is 0)

      <j|U' L U|k>    = coef[o, k] sum_c conj(u[c ^ s]) u[c]
      <j|U' L Pc U|k> = pc weight coef[o, k] (sum_c conj(u[c ^ s])) (sum_c u[c])

    The engine needs only weight enumerators, each a convolution of one
    histogram per component (of both halves of Xbar's): enumerator[k, w],
    W, the share of coset-k states of popcount w (_popcounts, from the
    classes), and overlap[o, k, a], N, the share of coset-k states c with
    |c & x_o| = a, x_o the x-mask of L, of popcount x_weight[o]: |c & x_o|
    = (|c| + |x_o| - |c ^ x_o|) / 2, and c ^ x_o is state i ^ s. Shares, not
    counts, so nothing scales with S.

    The build checks both facts the kernels and the engine rest on, once:
    ValueError when a factor is not constant per coset (to REALNESS_TOL), or
    when the forms are not Hermitian (coef[o, 1] = conj(coef[o, 0]) on
    coset-flipping rows, coef real on the others, to REALNESS_TOL after
    scaling by S/2, the largest damping sum; G drops that part, so |Im v| at
    every (theta, phi) and t is then within the tolerance too). It also
    raises for dependent generators (translation: "coset collision") and
    for a negated Z-type stabilizer, whose projector annihilates |0...0>.

    The designated pair is logicals.pairs[0]; ValueError when there is none
    or when engine.verify_logical_set reports a violation on it. generators,
    components and size come from _layout(code, [Xbar]), as do the caps
    cli.cmd_dephase checks.
    """

    def __init__(self, code: CodeSpec, logicals: LogicalSet):
        if not logicals.pairs:
            raise ValueError("no logical pair to dephase (k = 0)")
        report = verify_logical_set(code, LogicalSet(logicals.pairs[:1]))
        violations = "; ".join(report.logical_violations + report.degenerate)
        if not report.logicals_ok:
            raise ValueError(f"logical pair 1 fails verification: {violations}")
        _seed(code)  # the code's generators are independent and |0_L> exists
        xbar, zbar = logicals.pairs[0]
        prod = multiply(zbar, xbar)
        self.paulis = (xbar, PauliOperator(prod.n, prod.x_mask, prod.z_mask, prod.phase + 1), zbar)
        self.n, self.pc = code.n, 2.0 ** (code.m - code.n)
        self.generators, self.components, self.size = _layout(code, [xbar])
        self.weight = 2.0 ** (1 - len(self.generators))  # |amplitude|^2 = 2/S
        self.translation = _Translation(self.generators, self.n)
        # the qubit classes, (x-column, qubits), by lowest qubit
        self.classes = [(c, q) for c, q in collections.Counter(self.translation.columns).items() if c]
        # L's coef is 0 where its x-mask leaves the generators' span
        live = np.array([self.translation.coordinate(L.x_mask) is not None for L in self.paulis])
        units = np.array([[(1j) ** L.phase] * 2 for L in self.paulis])
        self.parts = []  # per component: (fields, columns, sizes, shifts), from _listing
        for c, part in enumerate(self.components):
            piece, amps, signs = _listing(self, part)
            self.parts.append(piece)
            cosets = 2 if c == 0 else 1
            s = np.array([s or 0 for s in piece[3]])
            images = np.arange(len(amps)) ^ s[:, None]
            factor = (np.conj(amps[images]) * signs * amps).reshape(3, cosets, -1)
            error = abs(factor - factor[..., :1])[live].max(initial=0.0)
            if error > REALNESS_TOL:
                raise ValueError(f"coefficients are not constant per coset: deviation {error:.3e}")
            units *= factor[..., 0]
            # the levels of N, |c & x_o| = (|c| + |x_o| - |c ^ x_o|) / 2 (x_o: L's
            # x-mask here, the mask of state s), then those of W, |c|
            w = _popcounts(*piece[1:3], len(amps))
            hist = _histograms(np.vstack([(w + w[s][:, None] - w[images]) // 2, w]), cosets, self.n)
            if c == 0:  # Xbar's component, the first: the shares start as its histograms
                shares, flipping = hist, 2 * s >= len(amps)
            for row in [*np.flatnonzero(s), 3] if c else ():  # the rows that vary here
                shares[row] = [np.convolve(share, hist[row, 0])[: self.n + 1] for share in shares[row]]
        units[~live] = 0.0
        self.overlap, self.enumerator = shares[:3], shares[3]
        self.coef = self.weight * units
        self.flipping = np.tile(flipping, 2)  # per form
        error = np.where(flipping, abs(units[:, 1] - np.conj(units[:, 0])), abs(units.imag).max(1)).max()
        if error > REALNESS_TOL:
            raise ValueError(f"forms are not Hermitian: deviation {error:.3e}")
        self.x_weight = np.array([L.x_mask.bit_count() for L in self.paulis])
        self._kernels = {}  # noise kind -> its Monte Carlo kernel

    def kernel(self, kind: str):
        """The Monte Carlo kernel of this frame for noise kind, built on first
        use: _PhasorKernel for global noise, _CosetKernel on the components
        for local."""
        if kind not in self._kernels:
            self._kernels[kind] = _PhasorKernel(self) if kind == "global" else _CosetKernel(self, kind)
        return self._kernels[kind]

    def expected(self, model: NoiseModel, t: float) -> np.ndarray:
        """(6,) E[G] at t: _combine of the per-coset forms F_k with conj(u_p) u_q
        replaced by K(p, q) = _damping between support states p and q, from
        the enumerators, in O(n) under local noise and O(n^2) under global.

        With z = e^{-c gamma t / 2}, U = coef / weight (coef S/2), x = x_weight[o]
        and f = flipping[o]: support state c ^ s is c XOR x_o, so local Bloch
        F_k = U z^x; local leakage F_k = pc U W_f(z), W_f the polynomial of
        enumerator row f (the distance between states of cosets k ^ f and k
        runs over coset f); global leakage F_k = pc U (W K W^T)[k ^ f, k], K
        taken between popcounts; global Bloch F_k = U sum_a N_k(a) K(x - 2a),
        |c ^ x_o| - |c| = x - 2 |c & x_o|.
        """
        unit, levels = self.coef / self.weight, np.arange(self.n + 1)
        if model.kind == "local":
            sums = self.enumerator @ _damping(levels, model, t)
            table = np.array([sums, sums[::-1]])  # [j, k] -> W_{j ^ k}(z)
            bloch = unit * _damping(self.x_weight, model, t)[:, None]
        else:
            kept = np.flatnonzero(self.enumerator.any(0))
            shares = self.enumerator[:, kept]
            table = shares @ _damping((kept[:, None] - kept) ** 2, model, t) @ shares.T
            change = _damping((self.x_weight[:, None] - 2 * levels) ** 2, model, t)
            bloch = unit * np.einsum("oka,oa->ok", self.overlap, change)
        pairs = table[np.arange(2) ^ self.flipping[:3, None], np.arange(2)]  # T[k ^ flip, k]
        return _combine(np.vstack([bloch, self.pc * unit * pairs]), self.flipping)


def _span(ops: Sequence[PauliOperator]) -> int:
    """The union of the x-masks of ops."""
    return functools.reduce(operator.or_, (op.x_mask for op in ops), 0)


def _layout(code: CodeSpec, xbars: Sequence[PauliOperator]):
    """(generators, components, size) of the frame of code with the
    designated Xbar in xbars: its generators (the X-type stabilizers, then
    xbars), their _components and the sum of their 2^m_c. Xbar can only
    join components and add a generator, so without it (xbars empty) size
    bounds the frame's from below."""
    generators = [s for s in code.stabilizers if s.x_mask] + list(xbars)
    components = _components(generators)
    return generators, components, sum(1 << len(part) for part in components)


def _listing(frame: _Frame, generators: Sequence[int]):
    """((fields, columns, sizes, shifts), amps, signs) of the component of
    the frame's generators with these indices, its state i the set of them
    chosen by the bits of i (bit b: generators[b]), whose qubit mask, the
    XOR of their x-masks, is not formed. fields lists the frame's qubit
    classes on the component (indices into frame.classes), columns their
    x-columns on the component's bits and sizes their qubit counts. amps
    are the states' amplitudes, _states on the generators written in index
    space (x-mask 2^b, z-mask the parity of its z-mask, the same phase). Per
    logical Pauli L (Xbar, Ybar, Zbar), index o, signs[o, i] is (-1)^|i & t|,
    t the parity of L's z-mask, so L|i> = sign |i ^ shift> without its
    phase, shifts[o] the coordinates of L's x-mask on the component's qubits
    (None where that is no state). Parities and coordinates come from
    frame.translation, and only the first part is kept (frame.parts)."""
    ops, translation = [frame.generators[g] for g in generators], frame.translation

    def local(mask: int) -> int:  # a set of the frame's generators, on the component's bits
        return sum(1 << b for b, g in enumerate(generators) if mask >> g & 1) if mask else 0

    own = sum(1 << g for g in generators)
    fields = [f for f, (column, _) in enumerate(frame.classes) if column & own]
    columns, sizes = [local(frame.classes[f][0]) for f in fields], [frame.classes[f][1] for f in fields]
    span = _span(ops)
    shifts = [translation.coordinate(L.x_mask & span) for L in frame.paulis]
    index, amps = _states([PauliOperator(len(ops), 1 << b, local(translation.parity(g.z_mask)), g.phase)
                           for b, g in enumerate(ops)])
    t = np.array([local(translation.parity(L.z_mask)) for L in frame.paulis], dtype=np.uint64)
    signs = 1.0 - 2.0 * (np.bitwise_count(index & t[:, None]) & 1)
    return (fields, columns, sizes, [None if a is None else local(a) for a in shifts]), amps, signs


def _popcounts(columns: Sequence[int], sizes: Sequence[int], size: int) -> np.ndarray:
    """W[i], the popcount of the qubit mask of state i of a component of
    size states, from its classes' columns and sizes (_listing): the sum of
    sizes[f] parity(i & columns[f]). As parity(i & c) = (1 - (-1)^|i & c|)
    / 2, W is (q - H) / 2, q the component's qubits and H the
    Walsh-Hadamard transform (engine._walsh) of the sizes set at their
    columns: no (classes, states) array is formed."""
    h = np.zeros(size, dtype=np.int32)
    h[columns] = sizes
    return (sum(sizes) - _walsh(h, size.bit_length() - 1)) // 2


def _histograms(levels: np.ndarray, cosets: int, n: int) -> np.ndarray:
    """(rows, cosets, n + 1): per row of levels (rows, states), levels of a
    component's states, the share of each coset's states at each level (of
    each half when cosets is 2, Xbar's component; of all of them, which both
    cosets share, when it is 1), so that convolutions of shares stay shares
    and nothing scales with S. No level passes n."""
    half, size = levels.shape[1] // cosets, len(levels) * cosets * (n + 1)
    counts = np.bincount(levels.ravel() + np.arange(0, size, n + 1).repeat(half), minlength=size)
    return counts.reshape(-1, cosets, n + 1) / half  # the keys offset each row's cosets


class _CosetKernel:
    """Per-batch Monte Carlo moments of a frame's forms (see the module
    docstring). Time enters only as the scale of the normals, so one kernel
    serves every t.

    The frame keeps one coefficient per coset and row, frame.coef, and one
    weight (checked there), so a sample needs only two kinds of sum of u:
    the coset sums P_k = sum_{c in k} u[c], which give the leakage forms (a
    constant times conj(P_{k ^ flip}) P_k), and per distinct x-shift s of the
    logical Paulis the quadratic sums Q_k = sum_{c in k} conj(u[c ^ s])
    u[c], which give the Bloch forms (a constant times Q_k; shift 0 makes
    Q_k the state count). _combine is folded into the constants: on a
    coset-flipping row c -> c ^ s swaps the cosets, so Q_1 = conj(Q_0) and G
    = (lambda_0 + conj(lambda_1)) Q_0; on a coset-keeping row Q_k is real and
    G = Re lambda_0 Q_0 + i Re lambda_1 Q_1, lambda_k the row's constant on
    coset k; the leakage rows likewise. Nothing of the frame is read per
    state and nothing is listed again: each component builds its spins
    from the frame's per-class data (frame.parts).

    It reads the components from frame.components (its X-type stabilizers,
    then Xbar, partitioned by _components), Xbar's component first. A
    support state is the XOR of one state per component and u is a product
    over the components, so each sum is a product of one sum per component
    over its 2^m_c states: a sample costs the sum of the 2^m_c, not S. A
    frame whose components are one part holding every generator runs the
    same code on all S states: the reference the tests hold the kernel to
    (feasible only for small S); a code whose generators form one component
    is that reference operation for operation. The draws and the batch
    split (size, the frame's sum of 2^m_c) do not depend on the partition:
    fields normals per sample, one per class of qubits with equal x-columns
    over the generators, frame.classes (a qubit's spin row relative to
    state 0 is the parity of the chosen generators that touch it; the one
    popcount row under global noise), ordered by lowest qubit. A class of m qubits takes
    its normal times sqrt(m), folded into the step tables; a qubit touched by
    no generator only adds a common phase and draws nothing.

    The step tables hold half the spin changes, so each table phase is 1 +
    (e^{2ih} - 1) from the tan of its half-angle h (_phase_minus_one): no
    per-sample sin or cos. The oracle runs it under local noise; under
    global noise (u from the popcounts) it is the per-sample reference of
    _PhasorKernel."""

    def __init__(self, frame: _Frame, kind: str):
        self.pc, self.flipping, self.size = frame.pc, frame.flipping, frame.size
        self.fields = 1 if kind == "global" else len(frame.classes)
        self.parts = [_Component(frame, kind, c) for c in range(len(frame.components))]
        self.chunk = _even(2 * MC_CHUNK // sum(part.size for part in self.parts))
        self.rows = max(len(step[3]) for part in self.parts for step in part.steps)
        self.reference = frame.expected(NoiseModel(kind, 0.0), 0.0)  # G at u = 1

        # per row: one complex constant (coset-flipping) or two real ones,
        # times the product of Q_0 (and Q_1) over the components that shift
        def folded(pair, flip):
            return pair[0] + np.conj(pair[1]) if flip else pair.real

        self.bloch = []  # per varying Pauli: (row, (component, shift index) of its Q, constant)
        for o, flip in enumerate(self.flipping[:3]):
            picks = tuple((c, part.pick[o]) for c, part in enumerate(self.parts)
                          if part.pick[o] is not None)
            states = math.prod(part.size // part.cosets for part in self.parts
                               if part.pick[o] is None)  # Q_k at shift 0, |u| = 1
            const = folded(frame.coef[o] * states, flip)
            if picks or const[0] + 1j * const[1] != self.reference[o]:  # else D is 0
                self.bloch.append((o, picks, const))
        self.leak = [folded(self.pc * frame.coef[o] * frame.weight, flip)  # of conj(P_{k ^ flip}) P_k
                     for o, flip in enumerate(self.flipping[:3])]
        self.varying = [o for o, _, _ in self.bloch] + [3, 4, 5]  # the rows of D computed

    def moments(self, seed: int, start: int, count: int, scales: Sequence[float]) -> np.ndarray:
        """(len(scales), 6, 3) sums of D, D^2 and |D|^2, D = G - reference,
        over samples start .. start + count - 1, whose phases are normals of
        standard deviation scales[i]. Each sub-chunk draws its standard
        normals once and every scale reuses them, so a row equals the call
        with that scale alone bit for bit. A Bloch row with no quadratic sum
        whose constant is G_ref's (r_z when Zbar is undressed) has D = 0 on
        every sample and is not computed: its sums are exactly 0. Every
        array of a sub-chunk is allocated once per call, none per scale."""
        gen = _stream(seed, start, self.fields)
        total = np.zeros((len(scales), 6, 3), dtype=np.complex128)
        width = min(self.chunk, count)
        # flat, each view contiguous; normals and picked are also the draws' scratch
        draws, normals, picked = block = np.empty((3, self.fields * width))
        work = [part.buffers(width) for part in self.parts]
        # P_k, a Bloch row's product of Q_k over several components, |P_k|^2
        coset_sums, chain, norms = np.empty((3, 2, width), dtype=np.complex128)
        pair = np.empty((1, width), dtype=np.complex128)  # conj(P_1) P_0
        # D, D^2 and |D|^2 of the varying rows
        d, square, norm = np.empty((3, len(self.varying), width), dtype=np.complex128)
        centre = self.reference[self.varying, None]
        halves, scratch = np.empty((2, self.rows * width))  # shared by the steps
        phases = np.empty(self.rows * width, dtype=np.complex128)
        shared = (picked, halves, scratch, phases)
        for lo in range(0, count, self.chunk):
            w = min(self.chunk, count - lo)
            z = _normals(gen, draws[: w * self.fields], block[1:].ravel()).reshape(w, -1).T
            for scale, running in zip(scales, total):  # running: this scale's (6, 3) sums
                x = np.multiply(z, scale, out=normals[: w * self.fields].reshape(-1, w))
                found = [part.sums(x, w, buffers, shared) for part, buffers in zip(self.parts, work)]
                p = found[0][0]  # P_k, a product over the components
                if len(found) > 1:
                    p = np.multiply(p, found[1][0], out=coset_sums[:, :w])
                    for other, _ in found[2:]:
                        p *= other
                cross = np.multiply(np.conj(p[1:], out=pair[:, :w]), p[:1], out=pair[:, :w])
                size = np.multiply(p, np.conj(p, out=norms[:, :w]), out=norms[:, :w]).real
                g = d[:, :w]
                for i, (o, picks, const) in enumerate(self.bloch):
                    _fill(g[i], const, _product(found, picks, chain[:, :w]), self.flipping[o])
                for i, (const, flip) in enumerate(zip(self.leak, self.flipping), len(self.bloch)):
                    _fill(g[i], const, cross if flip else size, flip)
                g -= centre  # D = G - G_ref
                np.multiply(g, g, out=square[:, :w])
                np.multiply(g, np.conj(g, out=norm[:, :w]), out=norm[:, :w])
                running[self.varying] += np.stack(
                    [g.sum(-1), square[:, :w].sum(-1), norm[:, :w].sum(-1)], 1)
        return total


def _product(found, picks, out: np.ndarray) -> Optional[np.ndarray]:
    """The product of the quadratic sums picks names ((component, shift
    index) pairs, the first component first) in found, the per-component
    results of _Component.sums; out (2, w) complex holds it when it takes
    more than one factor. None when picks is empty."""
    if not picks:
        return None
    (c, s), *rest = picks
    product = found[c][1][s]
    for c, s in rest:
        into = out[: len(product)]
        product = np.multiply(product, found[c][1][s],
                              out=into if np.iscomplexobj(product) else into.real)
    return product


def _fill(row: np.ndarray, const, product: Optional[np.ndarray], flip: bool):
    """Write G of one row: const (complex) times product[0] on a coset-flipping
    row, const[0] product[0] + i const[1] product[-1] (real product, one or
    two cosets) on a coset-keeping one; product None stands for 1."""
    if product is None:
        row[...] = const if flip else const[0] + 1j * const[1]
    elif flip:
        np.multiply(const, product[0], out=row)
    else:
        np.multiply(const[0], product[0], out=row.real)
        np.multiply(const[1], product[-1], out=row.imag)


class _Component:
    """Component c of a _CosetKernel: its state i is the set of the
    generators chosen by the bits of i (bit b: the b-th of
    frame.components[c], ascending, so Xbar, the frame's last generator, is
    the top bit of the component that holds it and its two halves are the
    cosets). It reads the frame's parts[c], (fields, columns, sizes,
    shifts): the classes it holds (their normals' indices, their x-columns
    on its bits, their sizes) and the logical Paulis' shifts, and lists no
    state. It holds the step tables (lo, hi, fields, half-angle table,
    index) that build u on its states and the x-shifts of the logical
    Paulis there (Pauli o maps state i to i ^ shift_o): shifts, the distinct
    nonzero ones, pick[o], the index of Pauli o's in shifts (None for shift
    0, or where its x-mask is no state here), and per shift s the states the
    quadratic sum visits (pairs). No coefficient is kept per state. Under
    local noise a class's spin on state i is the parity of i & its column
    times the square root of its size; under global noise the one field's
    spin is the popcount W (_popcounts). Every component takes the class
    spins relative to its state 0, the empty set, so its u is 1 there and
    no step computes it: a direct step
    gives u on states 1 .. hi - 1, then each doubling step gives u[lo:2 lo]
    as u[:lo] times a generator's phase changes. The first component's sums
    run over both cosets."""

    def __init__(self, frame: _Frame, kind: str, c: int):
        fields, columns, sizes, shifts = frame.parts[c]
        self.size, self.cosets = 1 << len(frame.components[c]), 2 if c == 0 else 1
        # spins relative to state 0 (no generator chosen): per class held
        # here, the parity of i & its column times sqrt(its size); the
        # popcount W under global noise
        if kind == "global":
            own, spins = np.zeros(1, dtype=int), _popcounts(columns, sizes, self.size)[None, :] * 1.0
        else:
            odd = np.bitwise_count(np.arange(self.size, dtype=np.uint64) & np.uint64(columns)[:, None]) & 1
            own, spins = np.array(fields, dtype=int), odd * np.sqrt(sizes)[:, None]
        self.shifts = sorted(set(shifts) - {0, None})
        self.pick = [self.shifts.index(s) if s else None for s in shifts]
        # per shift s with top bit b: whether it flips the coset, 2^b, and
        # the partners c ^ s of the states c with bit b clear (one of each
        # pair {c, c ^ s}), grouped by coset (one group, coset 0, when s flips
        # it, as its b is then the coset bit)
        self.pairs = []
        for s in self.shifts:
            flips, bit = c == 0 and 2 * s >= self.size, 1 << (s.bit_length() - 1)
            index = np.arange(self.size).reshape(1 if flips else self.cosets, -1, 2, bit)[:, :, 0]
            self.pairs.append((flips, bit, index ^ s))
        hi = self.size if kind == "global" else min(self.size, MC_DIRECT)
        self.steps, lo = [], 1
        while lo < self.size:  # u[1:hi] = exp(i normals . spins), then doubling steps
            # u[lo:hi] = u[:hi - lo] * exp(i normals . change)
            change = spins[:, lo:hi] - (spins[:, : hi - lo] if lo > 1 else 0.0)
            rows = np.flatnonzero(np.any(change, axis=1))
            table, index = np.unique(change[rows].T, axis=0, return_inverse=True)
            self.steps.append((lo, hi, own[rows], 0.5 * table, index.ravel()))  # half-angles
            lo, hi = hi, 2 * hi

    def buffers(self, width: int):
        """The arrays sums fills, for sub-chunks of up to width samples."""
        u = np.empty((self.size, width), dtype=np.complex128)
        u[0] = 1.0  # no step writes state 0
        partners = np.empty((self.size // 2, width), dtype=np.complex128)
        cosets = np.empty((self.cosets, width), dtype=np.complex128)
        quadratic = [np.empty((len(index), width), dtype=np.complex128) for _, _, index in self.pairs]
        return u, partners, cosets, quadratic

    def sums(self, x: np.ndarray, w: int, buffers, shared):
        """(P (cosets, w), [Q per shift]): the coset sums and the quadratic
        sums Q_k = sum_{c in k} conj(u[c ^ s]) u[c] of u on this component
        for the normals x (fields, w). Each runs over one state c of every
        pair {c, c ^ s}: a coset-flipping shift keeps Q_0, complex, (1, w)
        (Q_1 is its conjugate); any other keeps Q_k = 2 Re of the half sum,
        real, (cosets, w)."""
        u, partners, cosets, quadratic = buffers
        picked, halves, scratch, phases = shared
        u = u[:, :w]
        for lo, hi, fields, table, index in self.steps:
            shape, size = (len(table), w), len(table) * w
            chosen = picked[: len(fields) * w].reshape(-1, w)
            np.take(x, fields, axis=0, out=chosen, mode="clip")
            half = np.einsum("tw,wc->tc", table, chosen, out=halves[:size].reshape(shape))
            phase = phases[:size].reshape(shape)
            _phase_minus_one(half, phase, scratch[:size].reshape(shape), 1.0)  # e^{2ih}
            np.take(phase, index, axis=0, out=u[lo:hi], mode="clip")
            if lo > 1:  # a doubling step
                u[lo:hi] *= u[: hi - lo]
        found = []
        for (flips, bit, index), out in zip(self.pairs, quadratic):
            other = partners[: index.size, :w].reshape(*index.shape, w)
            np.conj(np.take(u, index, axis=0, out=other, mode="clip"), out=other)
            rows = u.reshape(len(index), -1, 2, bit, w)[:, :, 0]  # the states c
            h = np.einsum("gabw,gabw->gw", other, rows, out=out[:, :w])
            found.append(h if flips else np.multiply(2.0, h.real, out=h.real))
        coset = np.einsum("kcw->kw", u.reshape(self.cosets, -1, w), out=cosets[:, :w])
        return coset, found


def _components(generators: Sequence[PauliOperator]) -> List[List[int]]:
    """The classes of generator indices (each ascending) joined on the
    qubit columns (pauli.qubit_columns): on each qubit where some generator
    has an X, the generators with an X or a Z there. So two generators meet
    when their x-masks overlap or the z-mask of one meets the x-mask of the
    other, and a generator that meets none is a class of its own. Across
    classes the generators act on disjoint qubits and each one's sign on a
    basis state ignores the other classes' flips, so codeword amplitudes and
    dephasing phases factor over the classes. The class holding the last
    generator comes first, then the others by descending last index."""
    x_cols, z_cols = pauli.qubit_columns(generators, generators[0].n if generators else 0)
    parts = []  # disjoint masks over the generator indices
    for joined in dict.fromkeys(x | z for x, z in zip(x_cols, z_cols) if x):
        met = [part for part in parts if part & joined]
        parts = [part for part in parts if not part & joined] + [functools.reduce(operator.or_, met, joined)]
    alone = ~functools.reduce(operator.or_, parts, 0)
    parts += [1 << g for g in range(len(generators)) if alone >> g & 1]
    return [[low.bit_length() - 1 for low in _set_bits(part)] for part in sorted(parts, reverse=True)]


class _PhasorKernel:
    """_CosetKernel's moments under global noise, from one phasor per sample.

    One normal x drives every support state, u[p] = e^{i x l_p} with l_p =
    popcount(p) - n/2, so each per-coset form is a trigonometric
    polynomial in x whose frequencies are popcount differences: multiples of
    step (the gcd of the nonzero degrees of the frame's enumerator W, 2 when
    every support state has the same parity) up to K step, the largest
    degree of W (whose state 0 has degree 0, so K >= 1). _combine is
    real-linear, so D = G - G_ref = M v with v = (Re w_f, Im w_f), w_f =
    e^{i f step x} - 1 for f = 1..K, and a complex (6, 2K) matrix M folded
    from the frame's enumerators here, in two parts, with U = coef / weight.
    A Bloch form is U times the share N_k(a) of coset-k states c with |c &
    x_o| = a, at frequency (2a - |x_o|) / step = (l_c - l_{c ^ s}) / step; a
    leakage form is pc U times the convolution of the popcount shares W of
    its two cosets (q in coset k, p = c ^ s in coset k ^ flip). The folded
    forms at x = 0 must give G_ref, which the engine sums from the same
    enumerators another way (ValueError otherwise).
    A sample costs one tan (w_1 from _phase_minus_one, with no sin or cos),
    K - 1 steps of the centred recurrence
    w_{f+1} = (1 + w_1) w_f + w_1, which keeps w_f accurate relative to its
    size at small x, and D = M v (np.einsum, no BLAS) on the rows of the
    real (12, 2K) matrix (Re M over Im M) that are not identically zero, 8
    of 12 on the catalog codes (order, found once here; the sums of the
    other rows are exactly 0): O(K) work and no array of the support size
    S. D is squared per sample; the Gram matrix of
    v would cost O(K^2) and lose ~eps / x^2 of D^2 on rows whose leading
    orders cancel between frequencies (p_x, p_y of the unit cell). The draws
    are _CosetKernel's (fields = 1), and size, the frame's sum of 2^m_c,
    sets the same batch split."""

    def __init__(self, frame: _Frame):
        self.flipping = frame.flipping
        self.size, self.fields = frame.size, 1
        degrees = np.flatnonzero(frame.enumerator.any(0))
        self.step = int(np.gcd.reduce(degrees))
        self.degree = top = int(degrees[-1]) // self.step
        self.chunk = _even(MC_CHUNK // top)
        # forms[o, k, top + f]: coefficient of e^{i f step x} in F_k of row o
        width = 2 * top + 1
        hist = frame.enumerator[:, : top * self.step + 1 : self.step]  # per level
        unit = frame.coef / frame.weight
        forms = np.zeros((6, 2, width), dtype=np.complex128)
        for o, k in itertools.product(range(3), range(2)):
            a = np.flatnonzero(unit[o, k] * frame.overlap[o, k])  # |c & x_o|: frequency (2a - x_weight) / step
            forms[o, k, top + (2 * a - frame.x_weight[o]) // self.step] = unit[o, k] * frame.overlap[o, k, a]
            left = unit[o, k] * hist[k ^ int(self.flipping[o])][::-1]  # powers of e^{-i step x}
            forms[3 + o, k] = frame.pc * np.convolve(hist[k], left)
        self.reference = frame.expected(NoiseModel("global", 0.0), 0.0)  # G at u = 1
        error = abs(_combine(forms.sum(-1), self.flipping) - self.reference).max()
        if error > REALNESS_TOL:
            raise ValueError(f"folded forms miss G at u = 1 by {error:.3e}")
        up, down = forms[..., top + 1:], forms[..., top - 1::-1]  # frequencies f and -f
        matrix = _combine(np.concatenate([up + down, 1j * (up - down)], -1), self.flipping)
        matrix = np.concatenate([matrix.real, matrix.imag])  # (12, 2K): Re M over Im M
        # the nonzero rows: first the forms whose Re and Im rows are both
        # nonzero (Re rows, then Im rows), then the other nonzero rows
        nonzero = matrix.any(axis=1)
        self.both = np.flatnonzero(nonzero[:6] & nonzero[6:])
        single = [row for row in np.flatnonzero(nonzero) if row % 6 not in self.both]
        self.order = np.concatenate([self.both, self.both + 6, single]).astype(int)
        self.matrix = matrix[self.order]

    def moments(self, seed: int, start: int, count: int, scales: Sequence[float]) -> np.ndarray:
        """_CosetKernel.moments: (len(scales), 6, 3) sums of D, D^2 and |D|^2
        over samples start .. start + count - 1, one row per phase scale,
        every scale on the same normals, drawn once per sub-chunk."""
        gen = _stream(seed, start, self.fields)
        top, width = self.degree, min(self.chunk, count)
        phasors = np.empty((top, width), dtype=np.complex128)  # w_1 .. w_K per sample
        parts = np.empty((2 * top, width))  # v per sample
        draws = np.empty(width)
        halves, scratch = spare = np.empty((2, width))  # spare: also the draws' scratch
        pairs = len(self.both)
        total = np.zeros((len(scales), 2, len(self.order)))  # per nonzero row: sums of d, d^2
        cross = np.zeros((len(scales), pairs))  # sums of Re D Im D
        for lo in range(0, count, self.chunk):
            z = _normals(gen, draws[: min(self.chunk, count - lo)], spare.ravel())
            w, v = phasors[:, : len(z)], parts[:, : len(z)]
            first = w[0]
            for scale, running, running_cross in zip(scales, total, cross):
                half = np.multiply(z, 0.5 * self.step * scale, out=halves[: len(z)])  # step x / 2
                _phase_minus_one(half, first, scratch[: len(z)])  # e^{i step x} - 1
                turn = first + 1.0  # e^{i step x}
                for f in range(1, top):
                    np.multiply(turn, w[f - 1], out=w[f])
                    w[f] += first
                v[:top], v[top:] = w.real, w.imag
                d = np.einsum("oi,iw->ow", self.matrix, v)  # the nonzero rows of Re D over Im D
                running[0] += d.sum(1)
                running[1] += np.einsum("ow,ow->o", d, d)
                running_cross += np.einsum("ow,ow->o", d[:pairs], d[pairs : 2 * pairs])
        sums = np.zeros((len(scales), 2, 12))  # the skipped rows' sums are exactly 0
        sums[:, :, self.order] = total
        (re, im), (re2, im2) = sums.reshape(len(scales), 2, 2, 6).transpose(1, 2, 0, 3)
        mixed = np.zeros((len(scales), 6))
        mixed[:, self.both] = cross
        return np.stack([re + 1j * im, re2 - im2 + 2j * mixed, re2 + im2], -1)


def _phase_minus_one(half: np.ndarray, out: np.ndarray, scratch: np.ndarray, offset: float = 0.0):
    """out = offset + e^{2ih} - 1 for half-angles h, with e^{2ih} - 1 = q (-t^2, t),
    t = tan h and q = 2 / (1 + t^2): one SIMD tan and no sin or cos, and each
    part of e^{2ih} - 1 is accurate relative to its own size, also at small h
    where cos 2h - 1 would cancel. half is overwritten with t; scratch is a
    real array of its shape."""
    t = np.tan(half, out=half)
    q = np.multiply(t, t, out=scratch)
    q += 1.0
    np.divide(2.0, q, out=q)
    q *= t
    out.imag = q  # sin 2h
    q *= t
    np.subtract(offset, q, out=out.real)  # offset + cos 2h - 1


def _normals(gen: np.random.Generator, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Fill out (1-D, contiguous) with standard normals and return it: each
    two uniforms u_0, u_1 of gen, in stream order, give the pair r e^{2ih}
    (Box-Muller), r = sqrt(-2 log(1 - u_0)) and h = pi (u_1 - 1/2), the
    phase from _phase_minus_one, so the only transcendentals are SIMD log,
    sqrt and tan. An odd length draws one more uniform and keeps the first
    normal of the last pair. scratch is a real array of at least
    3 (len(out) // 2) elements."""
    even = len(out) & ~1
    pairs = gen.random(out=out[:even]).view(np.complex128)  # (u_0, u_1)
    m = len(pairs)
    radius, half, spare = scratch[:m], scratch[m : 2 * m], scratch[2 * m : 3 * m]
    np.subtract(1.0, pairs.real, out=radius)
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    np.subtract(pairs.imag, 0.5, out=half)
    half *= math.pi
    _phase_minus_one(half, pairs, spare, 1.0)  # e^{2ih}
    pairs.real *= radius
    pairs.imag *= radius
    if even < len(out):
        out[-1] = _normals(gen, np.empty(2), np.empty(3))[0]
    return out


def _stream(seed: int, start: int, fields: int) -> np.random.Generator:
    """The uniforms of the batch whose first sample is start: PCG64(seed)
    advanced by start x stride 64-bit draws (one per double), stride the
    normals per sample rounded up to even. A batch of count samples draws
    count x fields uniforms, plus one when that is odd (fields odd), at most
    count x stride: inside its own range for every batch size."""
    return np.random.Generator(np.random.PCG64(seed).advance(start * (fields + (fields & 1))))


def _even(width: int) -> int:
    """A sub-chunk width rounded down to an even number, at least 2, so
    every sub-chunk but a batch's last draws whole Box-Muller pairs."""
    return max(2, width & ~1)


def _combine(forms: np.ndarray, flipping: np.ndarray,
             out: Optional[np.ndarray] = None) -> np.ndarray:
    """G from the (6, 2, ...) per-coset forms F_k: F_0 + conj(F_1) on the
    coset-flipping rows, Re F_0 + i Re F_1 on the others; written into out
    (a complex (6, ...) array) when given."""
    g = np.add(forms[:, 0], np.conj(forms[:, 1], out=out), out=out)
    for row in np.flatnonzero(~flipping):
        keep = g[row, ...]  # a view, also where forms has no trailing axes
        np.add(forms[row, 0].real, np.multiply(1j, forms[row, 1].real, out=keep), out=keep)
    return g


def _point_weights(flipping: np.ndarray, theta: float, phi: float) -> np.ndarray:
    """(6,) y, value Re(y G), of c_0|0_L> + c_1|1_L>, c = (cos(theta/2), e^{i phi}
    sin(theta/2)): conj(c_1) c_0 on coset-flipping rows, c_0^2 - i |c_1|^2 else."""
    c0, c1 = math.cos(theta / 2.0), np.exp(1j * phi) * math.sin(theta / 2.0)
    return np.where(flipping, np.conj(c1) * c0, c0 * c0 - 1j * abs(c1) ** 2)


def _point_sums(moments: np.ndarray, kernel: Union[_CosetKernel, _PhasorKernel],
                theta: float, phi: float) -> np.ndarray:
    """(6, 3) v_ref = Re(y G_ref) and the sums of v - v_ref = Re(y D) and its
    square (Re(y^2 D^2) + |y D|^2) / 2 for the state c_0|0_L> + c_1|1_L>."""
    y = _point_weights(kernel.flipping, theta, phi)
    square = (y * y * moments[:, 1] + abs(y) ** 2 * moments[:, 2]).real
    return np.stack([(y * kernel.reference).real, (y * moments[:, 0]).real, 0.5 * square], 1)


def bloch_and_leakage(
    code: CodeSpec,
    logicals: LogicalSet,
    theta: float,
    phi: float,
    model: NoiseModel,
    t_grid: Sequence[float],
    frame: Optional[_Frame] = None,
) -> List[ObservableRecord]:
    """Analytic-factor engine: Bloch coordinates and leakage on a time grid.

    Each record is Re(y E[G]), the exact expectation of the Monte Carlo
    estimator; frame, the _Frame of (code, logicals), is built here when None.
    """
    if frame is None:
        frame = _Frame(code, logicals)
    y = _point_weights(frame.flipping, theta, phi)
    return [ObservableRecord(t, *(y * frame.expected(model, t)).real.tolist()) for t in t_grid]


def closed_form(
    kind: str, theta: float, phi: float, gamma: float, t: float
) -> ObservableRecord:
    """The published closed-form observables for the single unit cell."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    st, ct = math.sin(theta), math.cos(theta)
    cp, sp = math.cos(phi), math.sin(phi)
    e2 = math.exp(-2.0 * gamma * t)
    e8 = math.exp(-8.0 * gamma * t)
    if kind == "global":
        return ObservableRecord(
            t=t,
            r_x=0.5 * (1.0 + e2) * st * cp,
            r_y=-0.5 * (1.0 + e2) * st * sp,
            r_z=ct,
            p_x=(3.0 + 4.0 * e2 + e8) / 32.0 * st * cp,
            p_y=-(3.0 + 4.0 * e2 + e8) / 32.0 * st * sp,
            p_z=(1.0 + 9.0 * ct - 4.0 * e2 * (1.0 - ct) + 3.0 * e8 * (1.0 + ct)) / 64.0,
        )
    return ObservableRecord(
        t=t,
        r_x=e2 * st * cp,
        r_y=-e2 * st * sp,
        r_z=ct,
        p_x=(e2 + e8) / 8.0 * st * cp,
        p_y=-(e2 + e8) / 8.0 * st * sp,
        p_z=(1.0 + 3.0 * e8) / 16.0 * ct,
    )


# --- Monte Carlo oracle -------------------------------------------------------


def monte_carlo_grid(
    code: CodeSpec,
    logicals: LogicalSet,
    points: Sequence[Tuple[float, float]],
    model: NoiseModel,
    t_grid: Sequence[float],
    samples: int,
    seed: int,
    threads: int = 1,
    frame: Optional[_Frame] = None,
) -> List[List[ObservableRecord]]:
    """Monte Carlo means and standard errors for several (theta, phi) points
    at every t of t_grid: records[i][j] belongs to t_grid[i] and points[j].

    One common set of phase trajectories serves every point and every t:
    time enters only as the scale of the normals, so each batch draws its
    normals once and returns, per t, the sums of D, D^2 and |D|^2 (see the
    module docstring), and each point follows from their total. The cost
    grows as samples * sum_c 2^m_c over the frame's components per t under
    local noise and as samples * K under global noise (K the degree of
    _PhasorKernel's polynomial), plus one draw of the normals per sample:
    one per qubit class under local noise, one under global noise.
    Batches span MC_BATCH * 32 / size samples (MC_BATCH for size <= 32),
    size the frame's component states sum_c 2^m_c, under either kind and
    read disjoint ranges of one PCG64 stream (_stream: each batch owns
    batch * stride uniforms, stride the normals per sample rounded up to
    even, so the extra uniform of an odd last sub-chunk stays inside that
    range), so results are bit-identical for any thread count, and each t's
    records equal those of a one-element grid. Threads run whole batches, in
    one pool per call of min(threads, batches, usable cores) threads (more
    threads than cores only pass the interpreter lock around), and need no
    OPENBLAS_NUM_THREADS setting: neither kernel calls BLAS. frame, the
    _Frame of (code, logicals), is built here when None; it builds its
    kernel for model.kind on first use, so calls on one frame share that
    kernel. Every t is checked before the first draw (ValueError for one
    outside [0, inf) or a product convention * gamma * t that is not
    finite). At phase scale 0 (t = 0 or gamma = 0) no sample is drawn for
    that t: each record is v_ref with standard errors 0.
    """
    from concurrent.futures import ThreadPoolExecutor

    if samples < 1:
        raise ValueError("samples must be >= 1")
    scales = [math.sqrt(_exponent(model, t)) for t in t_grid]
    if frame is None:
        frame = _Frame(code, logicals)
    kernel = frame.kernel(model.kind)
    batch = max(1, min(MC_BATCH, (MC_BATCH << 5) // kernel.size))
    drawn = [scale for scale in scales if scale > 0.0]
    moments = np.zeros((len(scales), 6, 3), dtype=np.complex128)  # scale 0: every u is 1, D = 0

    def run(start: int) -> np.ndarray:
        return kernel.moments(seed, start, min(batch, samples - start), drawn)

    starts = range(0, samples, batch)
    if drawn:
        workers = max(1, min(threads, len(starts), _usable_cores()))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            moments[[scale > 0.0 for scale in scales]] = sum(pool.map(run, starts))  # batch order
    records = []
    for t, sums in zip(t_grid, moments):
        total = np.stack([_point_sums(sums, kernel, *p) for p in points])
        means = total[:, :, 0] + total[:, :, 1] / samples
        if samples > 1:
            var = (total[:, :, 2] - total[:, :, 1] ** 2 / samples) / (samples - 1)
            ses = np.sqrt(np.maximum(var, 0.0) / samples)
        else:
            ses = np.zeros_like(means)
        records.append([ObservableRecord(t, *m.tolist(), *e.tolist()) for m, e in zip(means, ses)])
    return records


def _usable_cores() -> int:
    """The cores this process may run on: its affinity set where the
    platform has one (Linux), else os.cpu_count()."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else os.cpu_count() or 1


def monte_carlo_oracle(
    code: CodeSpec,
    logicals: LogicalSet,
    theta: float,
    phi: float,
    model: NoiseModel,
    t: float,
    samples: int,
    seed: int,
    threads: int = 1,
) -> ObservableRecord:
    """Trajectory-averaged observables with standard errors at one point:
    monte_carlo_grid on one point and a one-element t grid."""
    args = (model, [t], samples, seed, threads)
    return monte_carlo_grid(code, logicals, [(theta, phi)], *args)[0][0]


# --- sweep CSV ----------------------------------------------------------------

SWEEP_COLUMNS = (
    "t,gamma,theta,phi,kind,source,"
    "r_x,r_y,r_z,p_x,p_y,p_z,se_r_x,se_r_y,se_r_z,se_p_x,se_p_y,se_p_z"
)


def format_float(value: float) -> str:
    """Shortest decimal that round-trips the double."""
    return repr(float(value))


def sweep_row(
    record: ObservableRecord,
    gamma: float,
    theta: float,
    phi: float,
    kind: str,
    source: str,
) -> str:
    fields = [
        format_float(record.t),
        format_float(gamma),
        format_float(theta),
        format_float(phi),
        kind,
        source,
    ]
    fields += [format_float(v) for v in record.values()]
    fields += ["" if e is None else format_float(e) for e in record.errors()]
    return ",".join(fields)
