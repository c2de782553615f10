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
from typing import Iterable, Sequence

LETTERS = ("X", "Y", "Z")  # the non-identity letters, in tree-edge order

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
        xb = (self.x >> j) & 1
        zb = (self.z >> j) & 1
        return ("I", "X", "Z", "Y")[xb + 2 * zb]

    def letters(self) -> tuple[str, ...]:
        return tuple(self.letter(j) for j in range(self.n))

    @property
    def support(self) -> tuple[int, ...]:
        m = self.x | self.z
        return tuple(j for j in range(self.n) if (m >> j) & 1)

    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    def y_count(self) -> int:
        return (self.x & self.z).bit_count()

    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0 and self.phase == 0

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


def single(n: int, letter: str, j: int, power: int = 0) -> PauliString:
    """i^power times the named single-qubit Pauli at qubit j."""
    if not 0 <= j < n:
        raise ValueError(f"qubit {j} out of range for n={n}")
    if letter == "X":
        return PauliString(n, 1 << j, 0, power)
    if letter == "Z":
        return PauliString(n, 0, 1 << j, power)
    if letter == "Y":
        # Y = i * X * Z
        return PauliString(n, 1 << j, 1 << j, power + 1)
    raise ValueError(f"unknown Pauli letter {letter!r}")


def from_letters(letters: Sequence[str], power: int = 0) -> PauliString:
    """Build i^power times the tensor product of the given letters."""
    x = z = 0
    y = 0
    for j, ell in enumerate(letters):
        if ell == "X":
            x |= 1 << j
        elif ell == "Z":
            z |= 1 << j
        elif ell == "Y":
            x |= 1 << j
            z |= 1 << j
            y += 1
        elif ell != "I":
            raise ValueError(f"unknown Pauli letter {ell!r}")
    return PauliString(len(letters), x, z, power + y)


def multiply(p: PauliString, q: PauliString) -> PauliString:
    """Exact operator product p * q.

    Moving q's X block left past p's Z block contributes (-1) per qubit
    where both act, hence the popcount below.
    """
    if p.n != q.n:
        raise DimensionMismatch(f"{p.n}-qubit times {q.n}-qubit string")
    phase = (p.phase + q.phase + 2 * (p.z & q.x).bit_count()) % 4
    return PauliString(p.n, p.x ^ q.x, p.z ^ q.z, phase)


def multiply_all(factors: Iterable[PauliString], n: int | None = None) -> PauliString:
    factors = list(factors)
    if not factors:
        if n is None:
            raise ValueError("empty product needs an explicit qubit count")
        return identity(n)
    out = factors[0]
    for f in factors[1:]:
        out = multiply(out, f)
    return out


def anticommutes(p: PauliString, q: PauliString) -> bool:
    """Symplectic inner product (p.x . q.z + p.z . q.x) mod 2; phase-free."""
    if p.n != q.n:
        raise DimensionMismatch(f"{p.n}-qubit vs {q.n}-qubit string")
    return ((p.x & q.z).bit_count() + (p.z & q.x).bit_count()) % 2 == 1


def restrict(p: PauliString, qubits: Iterable[int]) -> PauliString:
    """The string acting as p on the given qubits and as identity elsewhere.

    The i^phase prefactor stays with the restricted part, so the complement
    taken with a zero prefactor tensor-factorises p exactly:
    dense(restrict(p, S)) (x) dense(plain letters of p outside S) = dense(p).
    """
    mask = 0
    for j in qubits:
        if not 0 <= j < p.n:
            raise ValueError(f"qubit {j} out of range for n={p.n}")
        mask |= 1 << j
    return PauliString(p.n, p.x & mask, p.z & mask, p.phase)


# -- symbolic product states ------------------------------------------------

# state labels: (letter, sign) meaning the sign-eigenstate of the letter.
STATE_LABELS = {
    "0": ("Z", +1), "1": ("Z", -1),
    "+": ("X", +1), "-": ("X", -1),
    "r": ("Y", +1), "l": ("Y", -1),
}
_LABEL_CHARS = {v: k for k, v in STATE_LABELS.items()}

# single-qubit actions: (letter, state) -> (power of i, new state)
_ACTION: dict[tuple[str, tuple[str, int]], tuple[int, tuple[str, int]]] = {}
for _L in ("X", "Y", "Z"):
    for _s in (+1, -1):
        _ACTION[(_L, (_L, _s))] = (0 if _s > 0 else 2, (_L, _s))
_ACTION.update({
    ("X", ("Z", +1)): (0, ("Z", -1)),
    ("X", ("Z", -1)): (0, ("Z", +1)),
    ("X", ("Y", +1)): (1, ("Y", -1)),
    ("X", ("Y", -1)): (3, ("Y", +1)),
    ("Y", ("Z", +1)): (1, ("Z", -1)),
    ("Y", ("Z", -1)): (3, ("Z", +1)),
    ("Y", ("X", +1)): (3, ("X", -1)),
    ("Y", ("X", -1)): (1, ("X", +1)),
    ("Z", ("X", +1)): (0, ("X", -1)),
    ("Z", ("X", -1)): (0, ("X", +1)),
    ("Z", ("Y", +1)): (0, ("Y", -1)),
    ("Z", ("Y", -1)): (0, ("Y", +1)),
})


@dataclass(frozen=True)
class ProductState:
    """i^phase times a tensor product of single-qubit Pauli eigenstates."""

    n: int
    qubit_states: tuple[tuple[str, int], ...]
    phase: int = 0

    def __post_init__(self):
        if len(self.qubit_states) != self.n:
            raise ValueError("need exactly one eigenstate label per qubit")
        for st in self.qubit_states:
            if st not in _LABEL_CHARS:
                raise ValueError(f"bad eigenstate label {st!r}")
        object.__setattr__(self, "phase", self.phase % 4)

    def with_phase(self, phase: int) -> "ProductState":
        return ProductState(self.n, self.qubit_states, phase)

    def is_computational(self) -> bool:
        return all(letter == "Z" for letter, _ in self.qubit_states)

    def bits(self) -> int:
        """Bitmask of qubits in the -1 Z-eigenstate; only for computational states."""
        if not self.is_computational():
            raise ValueError("state is not a computational basis state")
        out = 0
        for j, (_, s) in enumerate(self.qubit_states):
            if s < 0:
                out |= 1 << j
        return out

    def __str__(self) -> str:
        body = "".join(_LABEL_CHARS[st] for st in self.qubit_states)
        return f"{SIGN_TOKENS[self.phase]} |{body}>"


def computational_state(n: int, bits: int) -> ProductState:
    """|bits> with qubit j in |1> iff bit j of ``bits`` is set."""
    states = tuple(("Z", -1 if (bits >> j) & 1 else +1) for j in range(n))
    return ProductState(n, states, 0)


def state_from_chars(chars: str) -> ProductState:
    """Parse a product state from one character per qubit (see STATE_LABELS)."""
    try:
        states = tuple(STATE_LABELS[c] for c in chars)
    except KeyError as exc:
        raise ValueError(f"bad state character {exc.args[0]!r}") from None
    return ProductState(len(chars), states, 0)


def apply_to_product_state(p: PauliString, s: ProductState) -> ProductState:
    """Exact action p|s>, a new product state with the global i^k phase."""
    if p.n != s.n:
        raise DimensionMismatch(f"{p.n}-qubit operator on {s.n}-qubit state")
    phase = p.phase + s.phase
    states = list(s.qubit_states)
    for j in range(p.n):
        xb = (p.x >> j) & 1
        zb = (p.z >> j) & 1
        if zb:  # Z block acts first
            k, states[j] = _ACTION[("Z", states[j])]
            phase += k
        if xb:
            k, states[j] = _ACTION[("X", states[j])]
            phase += k
    return ProductState(s.n, tuple(states), phase)


# -- text format -------------------------------------------------------------

def format_pauli(p: PauliString) -> str:
    """`SIGN FACTOR*` with factors sorted by qubit; identity is `+1 I`."""
    sign = SIGN_TOKENS[p.display_power()]
    if p.x == 0 and p.z == 0:
        return f"{sign} I"
    factors = " ".join(f"{p.letter(j)}{j}" for j in p.support)
    return f"{sign} {factors}"


def parse_pauli(text: str, n: int) -> PauliString:
    """Parse the `SIGN FACTOR*` format back into a PauliString."""
    tokens = text.split()
    if not tokens or tokens[0] not in _TOKEN_TO_POWER:
        raise ValueError(f"pauli text must start with a sign token: {text!r}")
    power = _TOKEN_TO_POWER[tokens[0]]
    letters = ["I"] * n
    if tokens[1:] == ["I"]:
        return from_letters(letters, power)
    last = -1
    for tok in tokens[1:]:
        if len(tok) < 2 or tok[0] not in "XYZ":
            raise ValueError(f"bad pauli factor {tok!r}")
        j = int(tok[1:])
        if not 0 <= j < n:
            raise ValueError(f"qubit index {j} out of range for n={n}")
        if j <= last:
            raise ValueError(f"factors must have strictly increasing qubits: {text!r}")
        letters[j] = tok[0]
        last = j
    return from_letters(letters, power)
