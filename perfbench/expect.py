"""Reference computations the benchmark checks fermap's outputs against.

Nothing here calls into fermap's algorithms: the GF(2) algebra, the affine
Majorana formula, tree generation and text, path-string structure and
dense product states are written out again from their definitions, so that
an output agreeing with them is evidence rather than a tautology.  Only
fermap's plain data constructors (PauliString, FermionQubitMapping) are
used, to express expected values in the library's own types.
"""

from __future__ import annotations

import numpy as np

from fermap.mapping import FermionQubitMapping
from fermap.pauli import PauliString

SIGN_TOKENS = ("+1", "+i", "-1", "-i")
STATE_CHARS = "01+-rl"
XY_STATE_CHARS = "+-rl"
_LETTER_SLOT = {"X": 0, "Y": 1, "Z": 2}


# -- GF(2) --------------------------------------------------------------------

def parity(v: int) -> int:
    return v.bit_count() & 1


def mat_vec(rows, v: int) -> int:
    out = 0
    for i, row in enumerate(rows):
        out |= parity(row & v) << i
    return out


def column(rows, j: int) -> int:
    return sum(((row >> j) & 1) << i for i, row in enumerate(rows))


def inverse(rows):
    """Gauss-Jordan inverse over F2 as a tuple of row masks; None if singular."""
    n = len(rows)
    work = list(rows)
    inv = [1 << i for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if (work[r] >> col) & 1), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        for r in range(n):
            if r != col and (work[r] >> col) & 1:
                work[r] ^= work[col]
                inv[r] ^= inv[col]
    return tuple(inv)


def random_invertible(rng, n: int):
    while True:
        rows = tuple(rng.getrandbits(n) for _ in range(n))
        if inverse(rows) is not None:
            return rows


def parity_rows(n: int):
    return tuple((1 << (i + 1)) - 1 for i in range(n))


def bravyi_kitaev_rows(n: int):
    """B_1 = [1]; B_2m has B_m on both diagonal blocks and row 0 of the
    top-right block all ones."""
    rows = [1]
    m = 1
    while m < n:
        rows = [r | ((((1 << m) - 1) << m) if i == 0 else 0) for i, r in enumerate(rows)] + [
            r << m for r in rows
        ]
        m *= 2
    return tuple(rows)


def bits(mask: int) -> frozenset[int]:
    return frozenset(j for j in range(mask.bit_length()) if (mask >> j) & 1)


def ufpr(rows, inv, i: int):
    """Update, flip, parity and remainder sets of mode i."""
    p = 0
    for k in range(i):
        p ^= inv[k]
    return bits(column(rows, i)), bits(inv[i]), bits(p), bits(inv[i] ^ p)


# -- affine encodings f -> |G(f xor b)> -----------------------------------------

def affine_majoranas(rows, b: int, inv=None) -> FermionQubitMapping:
    """G_2i = (-1)^{b_<i} X_U(i) Z_P(i), G_2i+1 = i (-1)^{b_<=i} X_U(i) Z_R(i)."""
    n = len(rows)
    inv = inverse(rows) if inv is None else inv
    pairs = []
    p = 0
    prefix = 0
    for i in range(n):
        u = column(rows, i)
        bi = (b >> i) & 1
        pairs.append((
            PauliString(n, u, p, 2 * prefix),
            PauliString(n, u, inv[i] ^ p, 1 + 2 * (prefix ^ bi)),
        ))
        p ^= inv[i]
        prefix ^= bi
    return FermionQubitMapping(n, tuple(pairs))


def sign_flips(n: int, b: int) -> int:
    """Operators whose sign differs between the affine and linear encodings."""
    flips = 0
    prefix = 0
    for i in range(n):
        bi = (b >> i) & 1
        flips |= prefix << (2 * i) | (prefix ^ bi) << (2 * i + 1)
        prefix ^= bi
    return flips


def tableau(rows, inv, b: int):
    n = len(rows)
    cols = tuple(column(rows, i) for i in range(n)) + tuple(r << n for r in inv)
    return cols, b << n


# -- Pauli strings --------------------------------------------------------------

def letter(x: int, z: int, j: int) -> str:
    return "IXZY"[((x >> j) & 1) + 2 * ((z >> j) & 1)]


def product_phase(p: PauliString, q: PauliString) -> int:
    """X^a Z^b X^c Z^d = (-1)^{|b & c|} X^(a+c) Z^(b+d)."""
    return (p.phase + q.phase + 2 * (p.z & q.x).bit_count()) % 4


def anticommute(p: PauliString, q: PauliString) -> bool:
    return parity((p.x & q.z) ^ (p.z & q.x)) == 1


def pauli_text(p: PauliString) -> str:
    sign = SIGN_TOKENS[(p.phase - (p.x & p.z).bit_count()) % 4]
    factors = [f"{letter(p.x, p.z, j)}{j}" for j in range(p.n) if ((p.x | p.z) >> j) & 1]
    return " ".join([sign] + (factors or ["I"]))


def random_pauli(rng, n: int, hermitian: bool = False) -> PauliString:
    x, z = rng.getrandbits(n), rng.getrandbits(n)
    phase = ((x & z).bit_count() + 2 * rng.randrange(2)) if hermitian else rng.randrange(4)
    return PauliString(n, x, z, phase)


# -- ternary trees ----------------------------------------------------------------

def random_tree(rng, n: int):
    """(root, children) of a uniformly grown labelled ternary tree."""
    order = list(range(n))
    rng.shuffle(order)
    children: dict[int, dict[str, int]] = {}
    open_slots = [(order[0], ell) for ell in "XYZ"]
    for v in order[1:]:
        parent, ell = open_slots.pop(rng.randrange(len(open_slots)))
        children.setdefault(parent, {})[ell] = v
        open_slots.extend((v, e) for e in "XYZ")
    return order[0], children


def tree_text(root: int, children) -> str:
    def emit(v: int) -> str:
        slots = children.get(v, {})
        inner = "".join(f" {ell}={emit(slots[ell])}" for ell in "XYZ" if ell in slots)
        return f"({v}{inner})"

    return emit(root)


def is_path_string(p: PauliString, tree) -> bool:
    """True when p's support is exactly one root-to-leaf walk of the tree,
    each vertex's letter naming the edge the walk leaves it by."""
    seen = 0
    v = tree.root
    while v is not None:
        ell = letter(p.x, p.z, v)
        if ell == "I":
            return False
        seen |= 1 << v
        v = tree.children[v][_LETTER_SLOT[ell]]
    return seen == p.x | p.z


# -- dense product states -----------------------------------------------------------

_EIGEN = {
    "0": (1, 0), "1": (0, 1),
    "+": (1, 1), "-": (1, -1),
    "r": (1, 1j), "l": (1, -1j),
}


def dense_product(chars: str) -> np.ndarray:
    """Normalised tensor product, qubit 0 the most significant index bit."""
    psi = np.ones(1, dtype=complex)
    for c in chars:
        v = np.array(_EIGEN[c], dtype=complex)
        psi = np.kron(psi, v / np.linalg.norm(v))
    return psi


def basis_chars(n: int, bits_: int) -> str:
    return "".join("1" if (bits_ >> j) & 1 else "0" for j in range(n))
