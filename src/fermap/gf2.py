"""Binary linear algebra over F2 with int-bitset rows.

Provides invertible matrices, the update/flip/parity/remainder index sets
used to build Pauli representations of encoded Majorana operators, and
constructors for the named encoding matrices (identity, parity,
Bravyi-Kitaev, and the strictly-lower-triangular accumulator Pi).

Bit-vectors are plain Python ints: bit j is coordinate j.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


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

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def column(self, j: int) -> int:
        out = 0
        for i, r in enumerate(self.rows):
            out |= ((r >> j) & 1) << i
        return out

    def transpose(self) -> "BinMatrix":
        cols = [0] * self.n
        for i, r in enumerate(self.rows):
            while r:  # one step per set bit
                cols[(r & -r).bit_length() - 1] |= 1 << i
                r &= r - 1
        return BinMatrix(self.n, tuple(cols))

    def __str__(self) -> str:
        return format_matrix(self)


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


def mat_mul(a: BinMatrix, b: BinMatrix) -> BinMatrix:
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    bt = b.transpose()
    rows = tuple(
        sum(((ra & bt.rows[j]).bit_count() & 1) << j for j in range(a.n))
        for ra in a.rows
    )
    return BinMatrix(a.n, rows)


def invert(g: BinMatrix) -> BinMatrix:
    """Gauss-Jordan inverse; raises Singular if G is not in GL_n(F2)."""
    n = g.n
    work = list(g.rows)
    inv = [1 << i for i in range(n)]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if (work[r] >> col) & 1:
                pivot = r
                break
        if pivot is None:
            raise Singular(f"no pivot in column {col}")
        work[col], work[pivot] = work[pivot], work[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        for r in range(n):
            if r != col and ((work[r] >> col) & 1):
                work[r] ^= work[col]
                inv[r] ^= inv[col]
    return BinMatrix(n, tuple(inv))


def is_invertible(g: BinMatrix) -> bool:
    try:
        invert(g)
    except Singular:
        return False
    return True


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
    u_mask = g.column(i)
    f_mask = ginv.rows[i]
    p_mask = 0
    for k in range(i):
        p_mask ^= ginv.rows[k]
    r_mask = f_mask ^ p_mask
    return tuple(_bits_to_set(m) for m in (u_mask, f_mask, p_mask, r_mask))  # type: ignore[return-value]


def _bits_to_set(mask: int) -> frozenset[int]:
    out = set()
    j = 0
    while mask:
        if mask & 1:
            out.add(j)
        mask >>= 1
        j += 1
    return frozenset(out)


def named_matrix(kind: str, n: int) -> BinMatrix:
    """One of the named encoding matrices.

    identity       -- the Jordan-Wigner matrix.
    parity         -- lower-triangular all-ones including the diagonal
                      (the diagonal is required for invertibility).
    pi             -- strictly lower-triangular all-ones, zero diagonal;
                      the prefix-sum accumulator used by the parity sets.
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
    if kind == "pi":
        return BinMatrix(n, tuple((1 << i) - 1 for i in range(n)))
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
        if is_invertible(g):
            return g


# -- matrix file format -------------------------------------------------------

def format_matrix(g: BinMatrix) -> str:
    """n lines of n characters from {0,1}, row-major, newline-terminated."""
    return "".join(
        "".join(str((row >> j) & 1) for j in range(g.n)) + "\n" for row in g.rows
    )


def parse_matrix(text: str) -> BinMatrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    n = len(lines)
    rows = []
    for ln in lines:
        ln = ln.strip()
        if len(ln) != n or any(c not in "01" for c in ln):
            raise ValueError(f"bad matrix row {ln!r}")
        rows.append(sum((1 << j) for j, c in enumerate(ln) if c == "1"))
    return BinMatrix(n, tuple(rows))
