"""Fermion-qubit mappings as ordered pairs of Hermitian Pauli strings.

A mapping on n modes is a list of n ordered pairs (G_{2i}, G_{2i+1}) of
mutually anticommuting Hermitian Pauli strings; pair i represents the two
Majorana generators of mode i.  This module computes vacua and Fock states
symbolically, transforms ladder operators into exact Pauli sums, and
provides the named Jordan-Wigner / Bravyi-Kitaev / parity mappings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from . import gf2, pauli
from .pauli import PauliString, ProductState


@dataclass(frozen=True)
class Violation:
    """First failed mapping check: a non-anticommuting or non-Hermitian pair."""

    kind: str  # "hermiticity" | "anticommutation"
    i: int
    j: int | None = None

    def __str__(self) -> str:
        if self.kind == "hermiticity":
            return f"operator {self.i} is not Hermitian"
        return f"operators {self.i} and {self.j} do not anticommute"


@dataclass(frozen=True)
class NonProduct:
    """Witness that a mapping's vacuum is entangled.

    ``qubit`` is a qubit addressed by two vacuum stabilizers with different
    local letters.
    """

    qubit: int
    letters: tuple[str, str]

    def __str__(self) -> str:
        a, b = self.letters
        return f"vacuum stabilizers act with both {a} and {b} on qubit {self.qubit}"


@dataclass(frozen=True)
class FermionQubitMapping:
    n: int
    pairs: tuple[tuple[PauliString, PauliString], ...]

    def __post_init__(self):
        if len(self.pairs) != self.n:
            raise ValueError("need exactly one operator pair per mode")
        for a, b in self.pairs:
            if a.n != self.n or b.n != self.n:
                raise ValueError("operator width differs from mode count")

    @property
    def gammas(self) -> tuple[PauliString, ...]:
        out = []
        for a, b in self.pairs:
            out.extend((a, b))
        return tuple(out)

    def __str__(self) -> str:
        return format_mapping(self)

    @cached_property
    def _vacuum(self) -> ProductState | NonProduct:
        """`vacuum_state`'s answer, solved once per object: the fields are
        frozen, and a raised ValueError is not stored, so it raises again."""
        return _solve_vacuum(self)


def validate(m: FermionQubitMapping) -> Violation | None:
    """Check Hermiticity of all 2n operators and pairwise anticommutation.

    By bit slices: bit i of xs[q] (zs[q]) is set when G_i has an X (Z) bit
    at qubit q.  Row j of the symplectic Gram matrix, below the diagonal, is
    the XOR of zs[q] over G_j's X support and of xs[q] over its Z support,
    taken over G_0..G_{j-1}, and must be all ones.  The lowest bad (i, j) is
    the pair a pairwise scan meets first.  Cost: an OR and an XOR of at most
    2n bits per X or Z bit of the operators, not (2n)^2 / 2 pair tests.
    """
    gammas = m.gammas
    for i, g in enumerate(gammas):
        if not g.is_hermitian():
            return Violation("hermiticity", i)
    xs, zs = [0] * m.n, [0] * m.n
    bad = []
    for j, g in enumerate(gammas):
        bit = 1 << j
        row = bit - 1  # all ones below j; XOR with the Gram row leaves the bad bits
        for q in gf2.set_bits(g.x):
            row ^= zs[q]
            xs[q] |= bit
        for q in gf2.set_bits(g.z):
            row ^= xs[q]  # sets bit j at a Y, masked off below
            zs[q] |= bit
        if row := row & (bit - 1):
            bad.append(((row & -row).bit_length() - 1, j))
    return Violation("anticommutation", *min(bad)) if bad else None


def jordan_wigner(n: int) -> FermionQubitMapping:
    """Z-chain mapping: gamma_2i = Z_0..Z_{i-1} X_i, gamma_2i+1 = Z_0..Z_{i-1} Y_i."""
    if n <= 0:
        raise ValueError("n must be positive")
    pairs = []
    for i in range(n):
        chain = (1 << i) - 1
        even = PauliString(n, 1 << i, chain, 0)
        odd = PauliString(n, 1 << i, chain | (1 << i), 1)
        pairs.append((even, odd))
    return FermionQubitMapping(n, tuple(pairs))


def named_mapping(kind: str, n: int) -> FermionQubitMapping:
    """jordan_wigner, bravyi_kitaev or parity on n modes."""
    if kind == "jordan_wigner":
        return jordan_wigner(n)
    if kind in ("bravyi_kitaev", "parity"):
        from . import encoding

        g = gf2.named_matrix(kind, n)
        return encoding.majoranas_of_affine(encoding.AffineEncoding(g, 0))
    raise ValueError(f"unknown mapping kind {kind!r}")


def vacuum_stabilizers(m: FermionQubitMapping) -> tuple[PauliString, ...]:
    """The n operators -i G_{2i} G_{2i+1}; Hermitian and mutually commuting."""
    out = []
    for a, b in m.pairs:
        s = pauli.multiply(a, b).times_i(3)
        out.append(s)
    return tuple(out)


def vacuum_state(m: FermionQubitMapping) -> ProductState | NonProduct:
    """The simultaneous +1-eigenstate of the vacuum stabilizers, if product.

    Each qubit must be addressed with a single letter across all
    stabilizers; the per-qubit eigenvalue signs then solve a linear system
    over F2.  Returns NonProduct when two stabilizers clash on a qubit, and
    raises ValueError when the letters agree but the signs are inconsistent
    (no valid mapping does that: its stabilizers never generate -1).
    The answer is kept on ``m``, so later calls, and every `fock_state` of
    ``m``, reuse it.
    """
    return m._vacuum


def _solve_vacuum(m: FermionQubitMapping) -> ProductState | NonProduct:
    stabs = vacuum_stabilizers(m)
    x = z = 0  # the letters seen so far, in PauliString's code
    for s in stabs:
        clash = (x | z) & (s.x | s.z) & ((x ^ s.x) | (z ^ s.z))
        if clash:
            j = (clash & -clash).bit_length() - 1
            seen = PauliString(m.n, x, z).letter(j)
            return NonProduct(j, (seen, s.letter(j)))
        x |= s.x
        z |= s.z
    # Solve for the per-qubit signs: stabilizer i fixes the parity of the
    # -1-eigenstate qubits inside its support.
    rows = []
    for s in stabs:
        if s.display_power() == 0:
            sign_bit = 0
        elif s.display_power() == 2:
            sign_bit = 1
        else:  # stabilizers of a valid mapping are Hermitian: +/-1 only
            raise ValueError("vacuum stabilizer with imaginary prefactor")
        rows.append((s.x | s.z, sign_bit))
    assign = gf2.solve(rows)
    if assign is None:
        raise ValueError("vacuum stabilizers demand inconsistent signs")
    # qubits no stabilizer addresses sit in |0>
    return ProductState(m.n, x, z | ~x & ((1 << m.n) - 1), assign)


def fock_state(m: FermionQubitMapping, f: int) -> ProductState:
    """(G_0)^{f_0} (G_2)^{f_1} ... applied to the vacuum, exact phase.

    The rightmost factor acts first, so the even Majorana of the highest
    occupied mode is applied first and mode 0's is applied last.
    """
    if f >> m.n:
        raise ValueError("occupation vector has bits beyond the mode count")
    vac = vacuum_state(m)
    if isinstance(vac, NonProduct):
        raise ValueError(f"mapping has no product vacuum: {vac}")
    state = vac
    for i in reversed(range(m.n)):
        if (f >> i) & 1:
            state = pauli.apply_to_product_state(m.pairs[i][0], state)
    return state


# -- exact Pauli sums ---------------------------------------------------------

Coeff = tuple[Fraction, Fraction]  # real and imaginary parts


def _cmul(a: Coeff, b: Coeff) -> Coeff:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


@dataclass(frozen=True)
class PauliSum:
    """Sum of Pauli strings with exact Gaussian rational coefficients.

    Terms are normalized: each operator's i^phase is folded into its
    coefficient, duplicate unsigned strings are merged, zero terms dropped,
    and terms are sorted by (x, z).
    """

    n: int
    terms: tuple[tuple[Coeff, PauliString], ...]

    @staticmethod
    def from_terms(n: int, terms: Iterable[tuple[Coeff, PauliString]]) -> "PauliSum":
        acc: dict[tuple[int, int], Coeff] = {}
        for (re, im), op in terms:
            if op.n != n:
                raise ValueError("operator width differs from sum width")
            # fold the operator's scalar i^k into the coefficient as k quarter
            # turns, keeping the plain letter product (display +1) as the
            # stored representative
            for _ in range(op.display_power()):
                re, im = -im, re
            key = (op.x, op.z)
            if key in acc:
                re, im = acc[key][0] + re, acc[key][1] + im
            acc[key] = (re, im)
        out = []
        for (x, z) in sorted(acc):
            c = acc[(x, z)]
            if not (c[0] or c[1]):
                continue
            if type(c[0]) is not Fraction or type(c[1]) is not Fraction:  # ints from a caller
                c = (Fraction(c[0]), Fraction(c[1]))
            out.append((c, PauliString(n, x, z, (x & z).bit_count())))
        return PauliSum(n, tuple(out))

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return PauliSum.from_terms(self.n, self.terms + other.terms)

    def __mul__(self, other: "PauliSum") -> "PauliSum":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        prod = []
        for ca, a in self.terms:
            for cb, b in other.terms:
                prod.append((_cmul(ca, cb), pauli.multiply(a, b)))
        return PauliSum.from_terms(self.n, prod)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (re, im), op in self.terms:
            word = pauli.format_pauli(op).removeprefix("+1 ")
            parts.append(f"({re}{'+' if im >= 0 else ''}{im}i) {word}")
        return " + ".join(parts)


def pauli_sum_identity(n: int) -> PauliSum:
    return PauliSum.from_terms(n, (((Fraction(1), Fraction(0)), pauli.identity(n)),))


_HALF: Coeff = (Fraction(1, 2), Fraction(0))
_HALF_I: Coeff = (Fraction(0), Fraction(1, 2))
_MINUS_HALF_I: Coeff = (Fraction(0), Fraction(-1, 2))


def annihilation(m: FermionQubitMapping, i: int) -> PauliSum:
    """A_i = (G_{2i} + i G_{2i+1}) / 2."""
    a, b = m.pairs[i]
    return PauliSum.from_terms(m.n, ((_HALF, a), (_HALF_I, b)))


def creation(m: FermionQubitMapping, i: int) -> PauliSum:
    """A_i^dagger = (G_{2i} - i G_{2i+1}) / 2."""
    a, b = m.pairs[i]
    return PauliSum.from_terms(m.n, ((_HALF, a), (_MINUS_HALF_I, b)))


def transform_ladder_term(
    m: FermionQubitMapping, ops: Sequence[tuple[int, bool]]
) -> PauliSum:
    """Product of ladder operators; each entry is (mode, dagger?)."""
    out = pauli_sum_identity(m.n)
    for mode, dagger in ops:
        if not 0 <= mode < m.n:
            raise ValueError(f"mode {mode} out of range")
        out = out * (creation(m, mode) if dagger else annihilation(m, mode))
    return out


@dataclass(frozen=True)
class WeightStats:
    max_weight: int
    mean_weight: Fraction


def weight_stats(m: FermionQubitMapping) -> WeightStats:
    weights = [g.weight() for g in m.gammas]
    return WeightStats(max(weights), Fraction(sum(weights), len(weights)))


# -- mapping file format --------------------------------------------------------

def format_mapping(m: FermionQubitMapping) -> str:
    lines = [f"n={m.n}"]
    for i, (a, b) in enumerate(m.pairs):
        lines.append(f"pair {i}: {pauli.format_pauli(a)} ; {pauli.format_pauli(b)}")
    return "\n".join(lines) + "\n"


def parse_mapping(text: str) -> FermionQubitMapping:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n="):
        raise ValueError("mapping file must start with an n=<N> header")
    if not pauli.is_index(lines[0][2:]):
        raise ValueError(f"mapping header must be n=<N> with N a plain decimal: {lines[0]!r}")
    n = int(lines[0][2:])
    if n == 0:
        raise ValueError("n must be positive")
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} pair lines, found {len(lines) - 1}")
    pairs = []
    for i, ln in enumerate(lines[1:]):
        prefix = f"pair {i}:"
        if not ln.startswith(prefix):
            raise ValueError(f"expected {prefix!r} on line {i + 2}")
        body = ln[len(prefix):]
        halves = body.split(";")
        if len(halves) != 2:
            raise ValueError(f"pair line needs exactly one ';': {ln!r}")
        pairs.append(
            (pauli.parse_pauli(halves[0].strip(), n), pauli.parse_pauli(halves[1].strip(), n))
        )
    return FermionQubitMapping(n, tuple(pairs))
