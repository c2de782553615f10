"""Labelling symmetries of fermion-qubit mappings and equivalence checking.

Two mappings are equivalent when a sequence of qubit swaps, single-qubit
Clifford basis changes, pair braids, operator sign changes and fermionic
mode swaps turns one into the other.  The decision procedure is
bounded-exhaustive: a cheap structural fingerprint rejects early, then the
search runs over qubit permutations and per-qubit letter permutations
(signs, braids and pair order are absorbed greedily).  Witnesses replay
through apply_symmetry and reproduce the target exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

from . import gf2, pauli
from .mapping import FermionQubitMapping, validate
from .pauli import LETTERS, PauliString

_ALL_PERMS = tuple(
    {"X": a, "Y": b, "Z": c} for a, b, c in itertools.permutations(LETTERS)
)

# Each letter permutation as the GL(2,2) matrix (a, b, c, d) acting on one
# qubit's bits by x' = a x ^ b z, z' = c x ^ d z.  Its columns are the codes
# of rho(X) and rho(Z) (X = (1, 0), Z = (0, 1)); rho(Y) = rho(X) + rho(Z)
# follows by linearity, since the three nonzero vectors of F_2^2 are X, Y, Z.
_MATRICES = tuple(
    (int(rho["X"] != "Z"), int(rho["Z"] != "Z"), int(rho["X"] != "X"), int(rho["Z"] != "X"))
    for rho in _ALL_PERMS
)


def _perm_parity(rho: dict[str, str]) -> int:
    """0 for even letter permutations (identity, 3-cycles), 1 for transpositions."""
    fixed = sum(1 for k, v in rho.items() if k == v)
    return 1 if fixed == 1 else 0


# -- symmetry operations -------------------------------------------------------

@dataclass(frozen=True)
class QubitSwap:
    """Relabel qubits: the letter on qubit i moves to qubit perm[i]."""

    perm: tuple[int, ...]


@dataclass(frozen=True)
class LocalBasisChange:
    """Single-qubit Clifford relabelling of (X, Y, Z) on one qubit.

    ``image`` lists the signed images of X, Y and Z in order.  Realizable
    exactly when the letters form a permutation whose parity matches the
    sign product (+1 for even permutations, -1 for transpositions); these
    are the 24 single-qubit Clifford images.
    """

    qubit: int
    image: tuple[tuple[str, int], tuple[str, int], tuple[str, int]]

    def __post_init__(self):
        letters = [ell for ell, _ in self.image]
        if sorted(letters) != sorted(LETTERS):
            raise ValueError("image letters must be a permutation of X, Y, Z")
        if any(s not in (1, -1) for _, s in self.image):
            raise ValueError("signs must be +1 or -1")
        if math.prod(s for _, s in self.image) != (-1) ** _perm_parity(dict(zip(LETTERS, letters))):
            raise ValueError("signed letter permutation is not a Clifford image")


@dataclass(frozen=True)
class PairBraid:
    """(G_2i, G_2i+1) -> (-G_2i+1, G_2i) for direction +1, (G_2i+1, -G_2i) for -1."""

    mode: int
    direction: int = 1

    def __post_init__(self):
        if self.direction not in (1, -1):
            raise ValueError("direction must be +1 or -1")


@dataclass(frozen=True)
class SignChange:
    """Negate the single operator with the given flat index in 0..2n-1."""

    index: int


@dataclass(frozen=True)
class FermionSwap:
    """Permute mode labels: new pair i is old pair perm[i]."""

    perm: tuple[int, ...]


SymmetryOp = Union[QubitSwap, LocalBasisChange, PairBraid, SignChange, FermionSwap]


def _move_bits(mask: int, perm) -> int:
    """The mask with bit i moved to bit perm[i]."""
    return sum(1 << perm[i] for i in gf2.set_bits(mask))


def _permute_qubits(p: PauliString, perm: tuple[int, ...]) -> PauliString:
    # moving bits keeps the Y count, so the phase keeps the display power
    return PauliString(p.n, _move_bits(p.x, perm), _move_bits(p.z, perm), p.phase)


def _relabel_letters(p: PauliString, qubit: int, image) -> PauliString:
    ell = p.letter(qubit)
    if ell == "I":
        return p
    new_letter, sign = image[LETTERS.index(ell)]
    keep = ~(1 << qubit)
    x = p.x & keep | (new_letter != "Z") << qubit
    z = p.z & keep | (new_letter != "X") << qubit
    return PauliString(p.n, x, z, p.display_power() + 2 * (sign < 0) + (x & z).bit_count())


def apply_symmetry(m: FermionQubitMapping, op: SymmetryOp) -> FermionQubitMapping:
    """Transformed mapping; the output is again a valid mapping."""
    if isinstance(op, QubitSwap):
        if sorted(op.perm) != list(range(m.n)):
            raise ValueError("qubit permutation must cover 0..n-1")
        pairs = tuple(
            (_permute_qubits(a, op.perm), _permute_qubits(b, op.perm)) for a, b in m.pairs
        )
        return FermionQubitMapping(m.n, pairs)
    if isinstance(op, LocalBasisChange):
        if not 0 <= op.qubit < m.n:
            raise ValueError("qubit out of range")
        pairs = tuple(
            (_relabel_letters(a, op.qubit, op.image), _relabel_letters(b, op.qubit, op.image))
            for a, b in m.pairs
        )
        return FermionQubitMapping(m.n, pairs)
    if isinstance(op, PairBraid):
        if not 0 <= op.mode < m.n:
            raise ValueError("mode out of range")
        a, b = m.pairs[op.mode]
        new_pair = (b.negated(), a) if op.direction == 1 else (b, a.negated())
        pairs = list(m.pairs)
        pairs[op.mode] = new_pair
        return FermionQubitMapping(m.n, tuple(pairs))
    if isinstance(op, SignChange):
        if not 0 <= op.index < 2 * m.n:
            raise ValueError("operator index out of range")
        pairs = list(m.pairs)
        a, b = pairs[op.index // 2]
        pairs[op.index // 2] = (a.negated(), b) if op.index % 2 == 0 else (a, b.negated())
        return FermionQubitMapping(m.n, tuple(pairs))
    if isinstance(op, FermionSwap):
        if sorted(op.perm) != list(range(m.n)):
            raise ValueError("mode permutation must cover 0..n-1")
        pairs = tuple(m.pairs[op.perm[i]] for i in range(m.n))
        return FermionQubitMapping(m.n, pairs)
    raise TypeError(f"not a symmetry operation: {op!r}")


def apply_symmetries(m: FermionQubitMapping, ops) -> FermionQubitMapping:
    for op in ops:
        m = apply_symmetry(m, op)
    return m


# -- fingerprint -----------------------------------------------------------------

# A qubit's unordered letter pair is stored as the set (a 4-bit mask) of its
# letter codes x + 2z; each renaming permutes the 16 sets through its code map.
_SET_MAPS = tuple(
    tuple(sum(1 << cm[c] for c in range(4) if s >> c & 1) for s in range(16))
    for cm in ((0, a | c << 1, b | d << 1, a ^ b | (c ^ d) << 1) for a, b, c, d in _MATRICES)
)


def fingerprint(m: FermionQubitMapping):
    """Canonical invariant under all five symmetry kinds.

    Combines the multiset of per-pair weight signatures with, per qubit,
    the counts of unordered local letter pairs canonicalized over letter
    renamings (the all-identity count follows from n); the qubit entries
    are themselves sorted.  Equal mappings give equal fingerprints;
    distinct fingerprints prove inequivalence.
    """
    weight_sig = tuple(
        sorted(tuple(sorted((a.weight(), b.weight()))) for a, b in m.pairs)
    )
    counts = [[0] * 16 for _ in range(m.n)]
    for a, b in m.pairs:
        ax, az, bx, bz = a.x, a.z, b.x, b.z
        for j in gf2.set_bits(ax | az | bx | bz):
            ca = (ax >> j & 1) | (az >> j & 1) << 1
            cb = (bx >> j & 1) | (bz >> j & 1) << 1
            counts[j][1 << ca | 1 << cb] += 1
    qubit_parts = sorted(
        min(tuple(row[s] for s in set_map) for set_map in _SET_MAPS) for row in counts
    )
    return (m.n, weight_sig, tuple(qubit_parts))


# -- equivalence decision ----------------------------------------------------------

@dataclass(frozen=True)
class Equivalent:
    witness: tuple[SymmetryOp, ...]


@dataclass(frozen=True)
class Inequivalent:
    reason: str


@dataclass(frozen=True)
class Unknown:
    reason: str


def equivalent(
    m1: FermionQubitMapping, m2: FermionQubitMapping, budget: int = 200_000
) -> Equivalent | Inequivalent | Unknown:
    """Decide Definition-9 equivalence by fingerprint plus bounded search.

    The search covers qubit permutations times per-qubit unsigned letter
    permutations; pair order, braids and signs are resolved greedily per
    pair since they act independently once supports match.  Exhaustive
    whenever n! * 6^n fits the budget (n <= 4 by default); otherwise
    Unknown.  A returned witness replays m1 into m2 exactly.
    """
    if m1.n != m2.n:
        raise ValueError("mappings must have equal mode counts")
    n = m1.n
    if m1 == m2:
        return Equivalent(())
    if fingerprint(m1) != fingerprint(m2):
        return Inequivalent("fingerprints differ")
    total = math.factorial(n) * 6**n
    if total > budget:
        return Unknown(f"search space {total} exceeds budget {budget}")

    target_pairs = {
        frozenset(((a.x, a.z), (b.x, b.z))): mode for mode, (a, b) in enumerate(m2.pairs)
    }
    # per rho-tuple, in itertools.product order, the masks (A, B, C, D) with
    # bit q holding rho_q's matrix: x' = x & A ^ z & B, z' = x & C ^ z & D
    masks = [(0, 0, 0, 0)]
    for q in range(n):
        masks = [
            (a | ra << q, b | rb << q, c | rc << q, d | rd << q)
            for a, b, c, d in masks
            for ra, rb, rc, rd in _MATRICES
        ]

    for sigma in itertools.permutations(range(n)):
        moved = [tuple(_move_bits(v, sigma) for v in (a.x, a.z, b.x, b.z)) for a, b in m1.pairs]
        for rhos, (ma, mb, mc, md) in zip(itertools.product(range(6), repeat=n), masks):
            assignment: list[int | None] = [None] * n
            for mode, (ax, az, bx, bz) in enumerate(moved):
                hit = target_pairs.get(frozenset((
                    (ax & ma ^ az & mb, ax & mc ^ az & md),
                    (bx & ma ^ bz & mb, bx & mc ^ bz & md),
                )))
                if hit is None:
                    break
                assignment[hit] = mode
            else:
                if None in assignment:
                    continue
                ops = _build_witness(m1, m2, sigma, rhos, assignment)
                if ops is not None:
                    return Equivalent(ops)
    return Inequivalent("no labelling symmetry matches")


def _build_witness(m1, m2, sigma, rhos, assignment) -> tuple[SymmetryOp, ...] | None:
    ops: list[SymmetryOp] = []
    if tuple(sigma) != tuple(range(m1.n)):
        ops.append(QubitSwap(tuple(sigma)))
    for q in range(m1.n):
        rho = _ALL_PERMS[rhos[q]]
        if all(rho[ell] == ell for ell in LETTERS):
            continue
        # a transposition carries its minus sign on the letter it fixes
        odd = _perm_parity(rho)
        image = tuple((rho[ell], -1 if odd and rho[ell] == ell else 1) for ell in LETTERS)
        ops.append(LocalBasisChange(q, image))  # type: ignore[arg-type]
    if tuple(assignment) != tuple(range(m1.n)):
        ops.append(FermionSwap(tuple(assignment)))
    current = apply_symmetries(m1, ops)
    for mode in range(m1.n):
        a, b = current.pairs[mode]
        c, d = m2.pairs[mode]
        if (a.x, a.z) != (c.x, c.z):
            ops.append(PairBraid(mode, 1))
            a, b = b.negated(), a
        if a != c:
            ops.append(SignChange(2 * mode))
            a = a.negated()
        if b != d:
            ops.append(SignChange(2 * mode + 1))
            b = b.negated()
        if (a, b) != (c, d):
            return None
    if apply_symmetries(m1, ops) != m2:
        return None
    return tuple(ops)


# -- two-mode templates ---------------------------------------------------------------

class TwoModeTemplate(Enum):
    JW = "JW_template"
    BK = "BK_template"
    PRODUCT_BREAKING = "ProductBreaking_template"


def classify_two_mode(m: FermionQubitMapping) -> TwoModeTemplate:
    """Template of a validated two-mode mapping by pair weight signature.

    One single-qubit pair plus one weight-2 pair is the Jordan-Wigner
    shape; one mixed pair plus a weight-2 pair is Bravyi-Kitaev; two mixed
    pairs split the single-qubit operators and break the product vacuum.
    """
    if m.n != 2:
        raise ValueError("two-mode classification needs n == 2")
    if validate(m) is not None:
        raise ValueError("mapping does not satisfy the anticommutation relations")
    sig = tuple(sorted(tuple(sorted((a.weight(), b.weight()))) for a, b in m.pairs))
    if sig == ((1, 1), (2, 2)):
        return TwoModeTemplate.JW
    if sig == ((1, 2), (2, 2)):
        return TwoModeTemplate.BK
    if sig == ((1, 2), (1, 2)):
        return TwoModeTemplate.PRODUCT_BREAKING
    raise ValueError(f"impossible two-mode weight signature {sig}")


@dataclass(frozen=True)
class CensusResult:
    counts: dict[TwoModeTemplate, int]
    total: int


def two_mode_census() -> CensusResult:
    """Classify every ordered 4-tuple of anticommuting unsigned 2-qubit Paulis.

    Tuples grow one string at a time, and only by strings that anticommute
    with every string already chosen (a string commutes with itself, so the
    entries stay distinct).
    """
    strings = [
        pauli.from_letters((a, b))
        for a in ("I",) + LETTERS
        for b in ("I",) + LETTERS
        if (a, b) != ("I", "I")
    ]
    quads: list[tuple[PauliString, ...]] = [()]
    for _ in range(4):
        quads = [q + (s,) for q in quads for s in strings if all(pauli.anticommutes(s, t) for t in q)]
    counts = {t: 0 for t in TwoModeTemplate}
    for quad in quads:
        m = FermionQubitMapping(2, ((quad[0], quad[1]), (quad[2], quad[3])))
        counts[classify_two_mode(m)] += 1
    return CensusResult(counts, len(quads))


# -- witness serialization ----------------------------------------------------------

def format_ops(ops) -> str:
    """Line-per-op text log, replayable by parse_ops."""
    lines = []
    for op in ops:
        if isinstance(op, QubitSwap):
            lines.append("qubit-swap " + " ".join(map(str, op.perm)))
        elif isinstance(op, LocalBasisChange):
            img = " ".join(
                f"{src}->{'-' if s < 0 else ''}{dst}"
                for src, (dst, s) in zip(LETTERS, op.image)
            )
            lines.append(f"basis-change {op.qubit} {img}")
        elif isinstance(op, PairBraid):
            lines.append(f"pair-braid {op.mode} {'+' if op.direction == 1 else '-'}")
        elif isinstance(op, SignChange):
            lines.append(f"sign-change {op.index}")
        elif isinstance(op, FermionSwap):
            lines.append("fermion-swap " + " ".join(map(str, op.perm)))
        else:
            raise TypeError(f"not a symmetry operation: {op!r}")
    return "\n".join(lines) + ("\n" if lines else "")


def _index(token: str) -> int:
    if not pauli.is_index(token):
        raise ValueError(f"bad index {token!r}")
    return int(token)


def parse_ops(text: str) -> tuple[SymmetryOp, ...]:
    ops: list[SymmetryOp] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        head, *rest = line.split()
        if head == "qubit-swap":
            ops.append(QubitSwap(tuple(map(_index, rest))))
        elif head == "basis-change" and rest:
            qubit = _index(rest[0])
            image = []
            for tok in rest[1:]:
                src, dst = tok.split("->")
                sign = -1 if dst.startswith("-") else 1
                image.append((dst.lstrip("-"), sign))
            ops.append(LocalBasisChange(qubit, tuple(image)))  # type: ignore[arg-type]
        elif head == "pair-braid" and len(rest) == 2 and rest[1] in ("+", "-"):
            ops.append(PairBraid(_index(rest[0]), 1 if rest[1] == "+" else -1))
        elif head == "sign-change" and len(rest) == 1:
            ops.append(SignChange(_index(rest[0])))
        elif head == "fermion-swap":
            ops.append(FermionSwap(tuple(map(_index, rest))))
        else:
            raise ValueError(f"unknown or malformed op line {line!r}")
    return tuple(ops)
