"""Signed n-qubit Pauli strings in symplectic form, with exact phase tracking.

A Pauli operator is stored as

    P = i^phase * (prod_j X_j^{x_j}) * (prod_j Z_j^{z_j})

where ``x`` and ``z`` are integer bitmasks (bit j acts on qubit j) and
``phase`` is an integer mod 4.  Under this convention the multiplication
phase reduces to a popcount and Hermiticity is the closed-form test
``(phase + |x & z|) % 2 == 0``.

The module also provides symbolic product states of single-qubit Pauli
eigenstates, closed under the action of any Pauli string, with the global
i^k phase tracked exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .gf2 import set_bits

LETTERS = ("X", "Y", "Z")  # the non-identity letters, in tree-edge order
_LETTER_CODES = ("I", "X", "Z", "Y")  # indexed by the letter code xb + 2*zb

# display sign tokens, indexed by the power of i in front of the letter product
SIGN_TOKENS = ("+1", "+i", "-1", "-i")
_TOKEN_TO_POWER = {t: k for k, t in enumerate(SIGN_TOKENS)}


class DimensionMismatch(ValueError):
    """Operands act on different numbers of qubits."""


@dataclass(frozen=True)
class PauliString:
    """A signed Pauli operator P = i^phase * X^x * Z^z on n qubits."""

    n: int
    x: int
    z: int
    phase: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("qubit count must be nonnegative")
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask:
            raise ValueError("x/z bits outside qubit range")
        object.__setattr__(self, "phase", self.phase % 4)

    # -- structure ---------------------------------------------------------

    def letter(self, j: int) -> str:
        """Local letter ('I','X','Y','Z') at qubit j."""
        return _LETTER_CODES[(self.x >> j & 1) + 2 * (self.z >> j & 1)]

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(set_bits(self.x | self.z))

    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    def y_count(self) -> int:
        return (self.x & self.z).bit_count()

    def is_hermitian(self) -> bool:
        return (self.phase + self.y_count()) % 2 == 0

    def display_power(self) -> int:
        """Power k such that P = i^k * (tensor product of plain letters)."""
        return (self.phase - self.y_count()) % 4

    # -- derived operators --------------------------------------------------

    def negated(self) -> "PauliString":
        return PauliString(self.n, self.x, self.z, self.phase + 2)

    def times_i(self, k: int = 1) -> "PauliString":
        return PauliString(self.n, self.x, self.z, self.phase + k)

    def __mul__(self, other: "PauliString") -> "PauliString":
        return multiply(self, other)

    def __str__(self) -> str:
        return format_pauli(self)


def identity(n: int) -> PauliString:
    return PauliString(n, 0, 0, 0)


def from_letters(letters: Sequence[str], power: int = 0) -> PauliString:
    """Build i^power times the tensor product of the given letters."""
    x = z = 0
    for j, ell in enumerate(letters):
        if ell not in _LETTER_CODES:
            raise ValueError(f"unknown Pauli letter {ell!r}")
        x |= (ell in "XY") << j
        z |= (ell in "YZ") << j
    return PauliString(len(letters), x, z, power + (x & z).bit_count())


def multiply(p: PauliString, q: PauliString) -> PauliString:
    """Exact operator product p * q.

    Moving q's X block left past p's Z block contributes (-1) per qubit
    where both act, hence the popcount below.
    """
    if p.n != q.n:
        raise DimensionMismatch(f"{p.n}-qubit times {q.n}-qubit string")
    phase = (p.phase + q.phase + 2 * (p.z & q.x).bit_count()) % 4
    return PauliString(p.n, p.x ^ q.x, p.z ^ q.z, phase)


def anticommutes(p: PauliString, q: PauliString) -> bool:
    """Symplectic inner product (p.x . q.z + p.z . q.x) mod 2; phase-free."""
    if p.n != q.n:
        raise DimensionMismatch(f"{p.n}-qubit vs {q.n}-qubit string")
    return ((p.x & q.z).bit_count() + (p.z & q.x).bit_count()) % 2 == 1


# -- symbolic product states ------------------------------------------------

# one character per eigenstate: index (letter code - 1) + 3 * (sign bit), with
# the letter code xb + 2*zb of PauliString.letter and sign bit 1 for -1
STATE_CHARS = "+0r-1l"


@dataclass(frozen=True)
class ProductState:
    """i^phase times a tensor product of single-qubit Pauli eigenstates.

    Qubit j is the eigenstate of the letter with bits j of ``x`` and ``z``
    (PauliString's letter code) whose eigenvalue is -1 iff bit j of ``s``
    is set.
    """

    n: int
    x: int
    z: int
    s: int
    phase: int = 0

    def __post_init__(self):
        if self.n < 0 or self.x | self.z != (1 << self.n) - 1:
            raise ValueError("need exactly one eigenstate letter per qubit")
        if self.s >> self.n:
            raise ValueError("sign bits outside qubit range")
        object.__setattr__(self, "phase", self.phase % 4)

    @property
    def qubit_states(self) -> tuple[tuple[str, int], ...]:
        """(letter, +1 or -1) per qubit: a view derived from the masks."""
        return tuple(
            (_LETTER_CODES[(self.x >> j & 1) + 2 * (self.z >> j & 1)], -1 if self.s >> j & 1 else 1)
            for j in range(self.n)
        )

    def with_phase(self, phase: int) -> "ProductState":
        return ProductState(self.n, self.x, self.z, self.s, phase)

    def is_computational(self) -> bool:
        return self.x == 0

    def bits(self) -> int:
        """Bitmask of qubits in the -1 Z-eigenstate; only for computational states."""
        if not self.is_computational():
            raise ValueError("state is not a computational basis state")
        return self.s

    def __repr__(self) -> str:
        return f"ProductState(n={self.n}, qubit_states={self.qubit_states!r}, phase={self.phase})"

    def __str__(self) -> str:
        body = "".join(
            STATE_CHARS[(self.x >> j & 1) + 2 * (self.z >> j & 1) - 1 + 3 * (self.s >> j & 1)]
            for j in range(self.n)
        )
        return f"{SIGN_TOKENS[self.phase]} |{body}>"


def computational_state(n: int, bits: int) -> ProductState:
    """|bits> with qubit j in |1> iff bit j of ``bits`` is set."""
    return ProductState(n, 0, (1 << n) - 1, bits)


def state_from_chars(chars: str) -> ProductState:
    """Parse a product state from one character per qubit (see STATE_CHARS)."""
    x = z = s = 0
    for j, c in enumerate(chars):
        k = STATE_CHARS.find(c)
        if k < 0:
            raise ValueError(f"bad state character {c!r}")
        code = k % 3 + 1
        x |= (code & 1) << j
        z |= (code >> 1) << j
        s |= (k // 3) << j
    return ProductState(len(chars), x, z, s)


def apply_to_product_state(p: PauliString, s: ProductState) -> ProductState:
    """Exact action p|s>, a new product state with the global i^k phase.

    p's Z block acts first: it flips the sign of X and Y eigenstates and
    gives -1 on |1>.  Its X block then flips Z and Y eigenstates, gives -1
    on |->, and i or -i on |r> or |l>.
    """
    if p.n != s.n:
        raise DimensionMismatch(f"{p.n}-qubit operator on {s.n}-qubit state")
    x, z = s.x, s.z
    signs = s.s ^ (p.z & x)
    phase = (
        p.phase + s.phase
        + 2 * (p.z & z & ~x & s.s).bit_count()
        + 2 * (p.x & x & signs).bit_count()
        + (p.x & x & z).bit_count()
    )
    return ProductState(s.n, x, z, signs ^ (p.x & z), phase)


# -- text format -------------------------------------------------------------

def format_pauli(p: PauliString) -> str:
    """`SIGN FACTOR*` with factors sorted by qubit; identity is `+1 I`."""
    sign = SIGN_TOKENS[p.display_power()]
    if p.x == 0 and p.z == 0:
        return f"{sign} I"
    factors = " ".join(f"{p.letter(j)}{j}" for j in p.support)
    return f"{sign} {factors}"


def is_index(token: str) -> bool:
    """A qubit or vertex index: ASCII digits, no sign, underscore or leading zero."""
    return token.isascii() and token.isdigit() and (token == "0" or token[0] != "0")


def parse_pauli(text: str, n: int) -> PauliString:
    """Parse the `SIGN FACTOR*` format back into a PauliString."""
    tokens = text.split()
    if not tokens or tokens[0] not in _TOKEN_TO_POWER:
        raise ValueError(f"pauli text must start with a sign token: {text!r}")
    power = _TOKEN_TO_POWER[tokens[0]]
    x = z = 0
    if tokens[1:] == ["I"]:
        return PauliString(n, x, z, power)
    last = -1
    for tok in tokens[1:]:
        letter, index = tok[:1], tok[1:]
        if letter not in LETTERS or not is_index(index):
            raise ValueError(f"bad pauli factor {tok!r}")
        j = int(index)
        if not 0 <= j < n:
            raise ValueError(f"qubit index {j} out of range for n={n}")
        if j <= last:
            raise ValueError(f"factors must have strictly increasing qubits: {text!r}")
        x |= (letter != "Z") << j
        z |= (letter != "X") << j
        last = j
    return PauliString(n, x, z, power + (x & z).bit_count())
