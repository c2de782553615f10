"""Binary linear algebra over F2 with int-bitset rows.

Provides one elimination (lowest-bit pivots, shared by `invert` and
`solve`), products as row XORs, the update/flip/parity/remainder index sets
used to build Pauli representations of encoded Majorana operators, and
constructors for the named encoding matrices (identity, parity,
Bravyi-Kitaev).

Bit-vectors are plain Python ints: bit j is coordinate j.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate, count
from operator import add
from typing import Iterable, Sequence


class Singular(ValueError):
    """The matrix is not invertible over F2."""


@dataclass(frozen=True)
class BinMatrix:
    """Square binary matrix; rows[i] is the bitmask of row i."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if len(self.rows) != self.n:
            raise ValueError("row count must equal n")
        mask = (1 << self.n) - 1
        if any(r & ~mask for r in self.rows):
            raise ValueError("row bits outside matrix width")

    def transpose(self) -> "BinMatrix":
        cols = [0] * self.n
        for i, r in enumerate(self.rows):
            for j in set_bits(r):
                cols[j] |= 1 << i
        return BinMatrix(self.n, tuple(cols))

    def __str__(self) -> str:
        return format_matrix(self)


def set_bits(mask: int) -> Iterable[int]:
    """Indices of the set bits of a nonnegative mask, ascending.

    A dense mask is split at the 1s of its binary string: O(length) in all.
    """
    if mask.bit_count() > 32:
        gaps = bin(mask).split("1")[:0:-1]  # the zero run below each set bit, lowest first
        return map(add, accumulate(map(len, gaps)), count())
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def identity_matrix(n: int) -> BinMatrix:
    return BinMatrix(n, tuple(1 << i for i in range(n)))


def mat_vec(g: BinMatrix, v: int) -> int:
    """G v over F2 for a bit-vector v."""
    if v >> g.n:
        raise ValueError("vector has bits outside matrix width")
    out = 0
    for i, row in enumerate(g.rows):
        out |= ((row & v).bit_count() & 1) << i
    return out


def xor_rows(rows: Sequence[int], mask: int) -> int:
    """XOR of rows[k] over the set bits k of mask."""
    out = 0
    for k in set_bits(mask):
        out ^= rows[k]
    return out


def mat_mul(a: BinMatrix, b: BinMatrix) -> BinMatrix:
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    return BinMatrix(a.n, tuple(xor_rows(b.rows, ra) for ra in a.rows))


def _echelon(rows: Iterable[tuple[int, int]]) -> dict[int, tuple[int, int]] | None:
    """Reduce each (mask, rhs) by the earlier pivots and key it by its lowest bit.

    rhs may be a bit-vector.  Returns {lowest bit: (mask, rhs)}, or None when
    a row reduces to 0 with a nonzero rhs.
    """
    pivots: dict[int, tuple[int, int]] = {}
    for mask, rhs in rows:
        while mask and (mask & -mask) in pivots:
            pmask, prhs = pivots[mask & -mask]
            mask ^= pmask
            rhs ^= prhs
        if mask:
            pivots[mask & -mask] = (mask, rhs)
        elif rhs:
            return None
    return pivots


def solve(rows: Iterable[tuple[int, int]]) -> int | None:
    """Solve sum_{j in mask} v_j = rhs over F2 for all (mask, rhs), free variables 0; None if inconsistent."""
    pivots = _echelon(rows)
    if pivots is None:
        return None
    solution = 0
    for low in sorted(pivots, reverse=True):
        mask, rhs = pivots[low]
        if rhs ^ ((solution & mask).bit_count() & 1):
            solution |= low
    return solution


def invert(g: BinMatrix) -> BinMatrix:
    """G^-1 by lowest-bit elimination; raises Singular if G is not in GL_n(F2).

    Pivot (mask, rhs): the rows of G in rhs sum to mask, so row k of G^-1 is
    rhs xor the inverse rows of mask's higher bits, filled highest first.
    The last row is fed first: a lower-triangular G such as parity then needs
    one reduction step per row, where first-row-first needs up to n.
    """
    pivots = _echelon((g.rows[i], 1 << i) for i in reversed(range(g.n)))
    if pivots is None:  # the rhs never reduce to 0, so a dependent row gets here
        raise Singular("rows are linearly dependent")
    inv = [0] * g.n
    for low in sorted(pivots, reverse=True):
        mask, rhs = pivots[low]
        inv[low.bit_length() - 1] = rhs ^ xor_rows(inv, mask ^ low)
    return BinMatrix(g.n, tuple(inv))


def ufpr_sets(g: BinMatrix, i: int) -> tuple[frozenset[int], frozenset[int], frozenset[int], frozenset[int]]:
    """Update, flip, parity and remainder sets of mode i for invertible G.

    U(i): rows of G with a 1 in column i.
    F(i): columns of G^-1 with a 1 in row i.
    P(i): F(0) xor F(1) xor ... xor F(i-1)  (symmetric difference).
    R(i): F(i) xor P(i).
    """
    if not 0 <= i < g.n:
        raise ValueError(f"mode index {i} out of range for n={g.n}")
    ginv = invert(g)
    u_mask = sum(((r >> i) & 1) << k for k, r in enumerate(g.rows))  # column i of G
    f_mask = ginv.rows[i]
    p_mask = xor_rows(ginv.rows, (1 << i) - 1)
    r_mask = f_mask ^ p_mask
    return tuple(frozenset(set_bits(m)) for m in (u_mask, f_mask, p_mask, r_mask))  # type: ignore[return-value]


def named_matrix(kind: str, n: int) -> BinMatrix:
    """One of the named encoding matrices.

    identity       -- the Jordan-Wigner matrix.
    parity         -- lower-triangular all-ones including the diagonal
                      (the diagonal is required for invertibility).
    bravyi_kitaev  -- recursive: B_1 = [1] and B_{2m} has B_m on the diagonal
                      blocks with the first row of the top-right block all
                      ones.  This orientation reproduces the two-mode
                      Bravyi-Kitaev Pauli pairs exactly; n must be a power
                      of two.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if kind == "identity":
        return identity_matrix(n)
    if kind == "parity":
        return BinMatrix(n, tuple((1 << (i + 1)) - 1 for i in range(n)))
    if kind == "bravyi_kitaev":
        if n & (n - 1):
            raise ValueError(f"bravyi_kitaev needs n a power of 2, got {n}")
        rows = [1]
        m = 1
        while m < n:
            hi = ((1 << m) - 1) << m  # columns m..2m-1
            top = [r | (hi if i == 0 else 0) for i, r in enumerate(rows)]
            bottom = [r << m for r in rows]
            rows = top + bottom
            m *= 2
        return BinMatrix(n, tuple(rows))
    raise ValueError(f"unknown matrix kind {kind!r}")


def random_invertible(n: int, seed: int) -> BinMatrix:
    """Deterministic random element of GL_n(F2) by seeded rejection sampling."""
    rng = random.Random(seed)
    limit = 1 << n
    while True:
        g = BinMatrix(n, tuple(rng.randrange(limit) for _ in range(n)))
        try:
            invert(g)
        except Singular:
            continue
        return g


# -- matrix file format -------------------------------------------------------

def format_matrix(g: BinMatrix) -> str:
    """n lines of n characters from {0,1}, row-major, newline-terminated."""
    return "".join(format(row, f"0{g.n}b")[::-1] + "\n" for row in g.rows)


def parse_matrix(text: str) -> BinMatrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    n = len(lines)
    rows = []
    for ln in lines:
        ln = ln.strip()
        if len(ln) != n or ln.strip("01"):  # only 0s and 1s
            raise ValueError(f"bad matrix row {ln!r}")
        rows.append(int(ln[::-1], 2))
    return BinMatrix(n, tuple(rows))
