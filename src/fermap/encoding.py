"""Affine and linear encodings of the Fock basis.

An affine encoding sends occupation vector f to the computational basis
state |G(f xor b)> for an invertible binary matrix G and offset b.  This
module builds the stabiliser tableau of the encoding Clifford, the exact
Pauli representations of its Majorana operators, decides exactly whether a
given mapping is such an encoding, and reduces affine encodings to linear ones
(which differ only in operator signs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import gf2, mapping as fqm
from .gf2 import BinMatrix
from .mapping import FermionQubitMapping
from .pauli import PauliString


@dataclass(frozen=True)
class AffineEncoding:
    """Fock-basis encoding f -> |G(f xor b)>; linear when b == 0."""

    g: BinMatrix
    b: int
    ginv: BinMatrix = field(init=False, repr=False, compare=False)  # G^-1, kept from the check

    def __post_init__(self):
        if self.b >> self.g.n:
            raise ValueError("offset has bits beyond the matrix width")
        object.__setattr__(self, "ginv", gf2.invert(self.g))  # raises Singular if g is singular

    @property
    def n(self) -> int:
        return self.g.n

    def is_linear(self) -> bool:
        return self.b == 0


@dataclass(frozen=True)
class NotClassical:
    """Witness that a mapping does not classically encode the Fock basis.

    ``reason`` explains the failure; when a specific occupation vector
    maps outside the plain computational basis it is reported in ``f``
    together with the offending symbolic state.
    """

    reason: str
    f: int | None = None
    state: object | None = None

    def __str__(self) -> str:
        if self.f is not None:
            return f"{self.reason} (f={self.f:b}, state={self.state})"
        return self.reason


@dataclass(frozen=True)
class StabiliserTableau:
    """Symplectic images of X_0..X_{n-1}, Z_0..Z_{n-1} under a Clifford.

    Column c packs the image of the c-th generator as a 2n-bit vector
    (x-part in bits 0..n-1, z-part in bits n..2n-1); ``signs`` holds one
    sign bit per column.  Equal tableaux mean equal Cliffords up to a
    global phase.
    """

    n: int
    columns: tuple[int, ...]
    signs: int

    def __post_init__(self):
        if len(self.columns) != 2 * self.n:
            raise ValueError("need 2n columns")

    def image(self, c: int) -> PauliString:
        """The signed Pauli image of generator c (X_c for c < n, else Z_{c-n})."""
        vec = self.columns[c]
        x = vec & ((1 << self.n) - 1)
        z = vec >> self.n
        sign_power = 2 * ((self.signs >> c) & 1)
        # phase convention: the stored operator is (+/-) X^x Z^z with the
        # y-count folded in so the displayed coefficient is exactly +/-1
        return PauliString(self.n, x, z, (x & z).bit_count() + sign_power)

    def dump(self) -> str:
        """2n rows of 2n+1 bits: tableau matrix rows, then the sign bit."""
        lines = []
        for r in range(2 * self.n):
            bits = "".join(str((col >> r) & 1) for col in self.columns)
            bits += str((self.signs >> r) & 1)
            lines.append(bits)
        return "\n".join(lines) + "\n"


def tableau_of_affine(enc: AffineEncoding) -> StabiliserTableau:
    """Block tableau: G top-left, (G^-1)^T bottom-right, sign column (0,b)."""
    n = enc.n
    # X_i -> X_{U(i)}: x-part is column i of G, i.e. row i of G^T
    # Z_i -> (-1)^{b_i} Z_{F(i)}: z-part is row i of G^-1
    cols = enc.g.transpose().rows + tuple(r << n for r in enc.ginv.rows)
    return StabiliserTableau(n, cols, enc.b << n)


def majoranas_of_affine(enc: AffineEncoding) -> FermionQubitMapping:
    """Exact Pauli pairs of the affine encoding f -> |G(f xor b)>.

    G_{2i}   = (-1)^{b_0+..+b_{i-1}} X_{U(i)} Z_{P(i)}
    G_{2i+1} = i (-1)^{b_0+..+b_i}   X_{U(i)} Z_{R(i)}

    with the update, flip, parity and remainder sets of ``gf2.ufpr_sets``,
    all read from the encoding's inverse.  For b = 0 this is the linear-encoding
    formula; the vacuum is |G b>.
    """
    n, ginv = enc.n, enc.ginv
    u_masks = enc.g.transpose().rows  # U(i) is column i of G
    pairs = []
    p_mask = 0  # P(i) = F(0) xor .. xor F(i-1), F(k) = row k of G^-1
    prefix = 0  # running parity of b_0..b_{i-1}
    for i in range(n):
        bi = (enc.b >> i) & 1
        even = PauliString(n, u_masks[i], p_mask, 2 * prefix)
        odd = PauliString(n, u_masks[i], p_mask ^ ginv.rows[i], 1 + 2 * (prefix ^ bi))
        pairs.append((even, odd))
        p_mask ^= ginv.rows[i]
        prefix ^= bi
    return FermionQubitMapping(n, tuple(pairs))


def flip_matrix(m: FermionQubitMapping) -> BinMatrix:
    """G with column i the X/Y support of the even Majorana of mode i."""
    return BinMatrix(m.n, tuple(a.x for a, _ in m.pairs)).transpose()


def detect_classical(m: FermionQubitMapping) -> AffineEncoding | NotClassical:
    """Decide exactly whether m classically encodes the Fock basis; recover (G, b).

    Precondition: m passes `mapping.validate`.  The symbolic vacuum must be
    a plain computational basis state |q>; G is the flip matrix and
    b = G^-1 q, with row i of G^-1 read off m as F(i) = z_2i xor z_2i+1,
    the XOR of mode i's two Z masks; G is inverted once, by AffineEncoding's
    own check.  Writing the even Majorana of
    mode i as i^k_i X^x_i Z^z_i, every Fock state is i^phi(f) |G(f xor b)>
    with

        phi(f) = sum_i f_i a_i + 2 sum_{i<j} f_i f_j c_ij  (mod 4),
        a_i = k_i + 2 |z_i & q|,  c_ij = |z_i & x_j| mod 2,

    so the encoding is classical exactly when every a_i = 0 mod 4 and
    every c_ij = 0.  The witness is e_i for the first bad a_i, else
    e_i + e_j for the first bad c_ij.
    """
    vac = fqm.vacuum_state(m)
    if isinstance(vac, fqm.NonProduct):
        return NotClassical(f"entangled vacuum: {vac}")
    if not vac.is_computational():
        return NotClassical("vacuum is a product state outside the computational basis", 0, vac)
    q = vac.bits()

    g = flip_matrix(m)
    b = sum((((a.z ^ c.z) & q).bit_count() & 1) << i for i, (a, c) in enumerate(m.pairs))
    try:
        enc = AffineEncoding(g, b)
    except gf2.Singular:
        return NotClassical("excitation flip patterns are not linearly independent")
    f = _phase_witness(m, g, q)
    if f is not None:
        return NotClassical("Fock state outside the +1 computational basis", f, fqm.fock_state(m, f))
    return enc


def _phase_witness(m: FermionQubitMapping, g: BinMatrix, q: int) -> int | None:
    """First f with phi(f) != 0 mod 4 (see detect_classical), or None."""
    evens = [a for a, _ in m.pairs]
    for i, a in enumerate(evens):
        if (a.phase + 2 * (a.z & q).bit_count()) % 4:
            return 1 << i
    for i, a in enumerate(evens):
        later = gf2.xor_rows(g.rows, a.z) >> (i + 1)  # row q of G holds bit q of every x_j
        if later:
            return (1 << i) | ((later & -later) << (i + 1))
    return None


def affine_to_linear(
    m: FermionQubitMapping, enc: AffineEncoding
) -> tuple[FermionQubitMapping, int]:
    """The linear encoding with the same G, plus per-operator sign flips.

    Conjugating by X on the qubits selected by b only flips signs: by the
    formulas of `majoranas_of_affine`, the linear pairs are m's own masks
    with phases 0 and 1.  Bit i of the returned mask is set where operator
    i changed sign.
    """
    if majoranas_of_affine(enc) != m:
        raise ValueError("mapping does not match the claimed affine encoding")
    pairs = tuple((PauliString(m.n, a.x, a.z, 0), PauliString(m.n, c.x, c.z, 1)) for a, c in m.pairs)
    flips = sum((op.phase != i % 2) << i for i, op in enumerate(m.gammas))
    return FermionQubitMapping(m.n, pairs), flips
