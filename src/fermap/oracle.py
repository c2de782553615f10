"""Dense state-vector verification of mapping algebra at small qubit counts.

Everything here works on explicit 2^n complex amplitude vectors, applying
single-qubit 2x2 matrices axis by axis.  It deliberately shares no code
with the symplectic fast paths so that agreement between the two is
meaningful evidence.  Amplitude index convention: qubit 0 is the most
significant bit, so |f_0 f_1 ... f_{n-1}> sits at index sum f_j 2^{n-1-j}.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .pauli import PauliString, ProductState

if TYPE_CHECKING:  # pragma: no cover
    from .mapping import FermionQubitMapping

TOL = 1e-9
DENSE_LIMIT = 14  # largest n whose 2^n-amplitude vacuum the oracle builds

# DenseState: 1-D complex array of length 2^n (or a (2^n, batch) column batch).
DenseState = np.ndarray

_SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_EIGENSTATES = {
    ("Z", +1): np.array([1, 0], dtype=complex),
    ("Z", -1): np.array([0, 1], dtype=complex),
    ("X", +1): np.array([1, 1], dtype=complex) / np.sqrt(2),
    ("X", -1): np.array([1, -1], dtype=complex) / np.sqrt(2),
    ("Y", +1): np.array([1, 1j], dtype=complex) / np.sqrt(2),
    ("Y", -1): np.array([1, -1j], dtype=complex) / np.sqrt(2),
}


def basis_state(n: int, bits: int) -> DenseState:
    psi = np.zeros(1 << n, dtype=complex)
    psi[bits_to_index(n, bits)] = 1.0
    return psi


def bits_to_index(n: int, bits: int) -> int:
    """Convert a bit-vector (bit j = qubit j) to an amplitude index."""
    idx = 0
    for j in range(n):
        if (bits >> j) & 1:
            idx |= 1 << (n - 1 - j)
    return idx


def dense_product_state(s: ProductState) -> DenseState:
    psi = np.array([1j ** s.phase], dtype=complex)
    for st in s.qubit_states:
        psi = np.kron(psi, _EIGENSTATES[st])
    return psi


def _apply_single(mat: np.ndarray, psi: np.ndarray, n: int, j: int) -> np.ndarray:
    cols = psi.shape[1] if psi.ndim == 2 else 1
    shaped = psi.reshape((1 << j, 2, (1 << (n - 1 - j)) * cols))
    out = np.einsum("ab,ibj->iaj", mat, shaped)
    return out.reshape(psi.shape)


def apply_pauli(p: PauliString, psi: DenseState) -> DenseState:
    """p|psi> by sequential single-qubit matrix application."""
    n = p.n
    if psi.shape[0] != (1 << n):
        raise ValueError("state dimension does not match operator width")
    out = psi.astype(complex, copy=True)
    for j in range(n):
        zb = (p.z >> j) & 1
        xb = (p.x >> j) & 1
        if zb:
            out = _apply_single(_SINGLE["Z"], out, n, j)
        if xb:
            out = _apply_single(_SINGLE["X"], out, n, j)
    return (1j ** p.phase) * out


def dense_matrix(p: PauliString) -> np.ndarray:
    """Explicit 2^n x 2^n matrix of p via Kronecker products (small n only)."""
    if p.n > 12:
        raise ValueError("dense matrix limited to n <= 12")
    mat = np.array([[1j ** p.phase]], dtype=complex)
    for j in range(p.n):
        zb = (p.z >> j) & 1
        xb = (p.x >> j) & 1
        local = _SINGLE["X"] @ _SINGLE["Z"] if (xb and zb) else (
            _SINGLE["X"] if xb else (_SINGLE["Z"] if zb else _SINGLE["I"])
        )
        mat = np.kron(mat, local)
    return mat


def _permutation_action(p: PauliString) -> tuple[np.ndarray, np.ndarray]:
    """(perm, coeff) with p|e_b> = coeff[b] |e_perm[b]>, from dense columns."""
    n = p.n
    dim = 1 << n
    perm = np.empty(dim, dtype=np.int64)
    coeff = np.empty(dim, dtype=complex)
    chunk = 256
    for start in range(0, dim, chunk):
        stop = min(start + chunk, dim)
        batch = np.zeros((dim, stop - start), dtype=complex)
        for k, b in enumerate(range(start, stop)):
            batch[b, k] = 1.0
        image = apply_pauli(p, batch)
        idx = np.abs(image).argmax(axis=0)
        perm[start:stop] = idx
        coeff[start:stop] = image[idx, np.arange(stop - start)]
        image[idx, np.arange(stop - start)] = 0.0
        if np.abs(image).max() > TOL:
            raise AssertionError("pauli action is not a signed permutation")
    return perm, coeff


@dataclass(frozen=True)
class CarReport:
    """First violated canonical anticommutation relation."""

    kind: str  # "hermiticity" | "anticommutator" | "square"
    i: int
    j: int | None = None
    deviation: float = 0.0

    def __str__(self) -> str:
        where = f"operator {self.i}" if self.j is None else f"operators ({self.i}, {self.j})"
        return f"{self.kind} violated at {where} (deviation {self.deviation:.3g})"


def check_car(m: "FermionQubitMapping", tol: float = TOL) -> CarReport | None:
    """Verify {G_i, G_j} = 2 delta_ij and Hermiticity on all basis states."""
    if m.n > 10:
        raise ValueError("dense CAR check limited to n <= 10")
    actions = [_permutation_action(g) for g in m.gammas]
    dim = 1 << m.n
    ident = np.arange(dim)
    for i, (perm, coeff) in enumerate(actions):
        # G_i^2 = identity
        if np.any(perm[perm] != ident):
            return CarReport("square", i, None, 1.0)
        dev = float(np.abs(coeff * coeff[perm] - 1.0).max())
        if dev > tol:
            return CarReport("square", i, None, dev)
        # Hermiticity: <a|G|b> = conj(<b|G|a>)
        dev = float(np.abs(coeff[perm] - coeff.conj()).max())
        if dev > tol:
            return CarReport("hermiticity", i, None, dev)
    for i in range(len(actions)):
        pi, ci = actions[i]
        for j in range(i + 1, len(actions)):
            pj, cj = actions[j]
            comp_ij = ci[pj] * cj  # G_i G_j |e_b> lands on index pi[pj[b]]
            comp_ji = cj[pi] * ci
            same = pi[pj] == pj[pi]
            dev_arr = np.where(
                same, np.abs(comp_ij + comp_ji), np.maximum(np.abs(comp_ij), np.abs(comp_ji))
            )
            dev = float(dev_arr.max())
            if dev > tol:
                return CarReport("anticommutator", i, j, dev)
    return None


def dense_vacuum(m: "FermionQubitMapping") -> DenseState:
    """Normalized simultaneous +1-eigenstate of the vacuum stabilizers.

    Applies the projector product prod_i (1 + S_i)/2 to computational basis
    vectors in lexicographic order until a nonzero image appears; the global
    phase is fixed by making the first nonzero amplitude real positive.
    """
    if m.n > DENSE_LIMIT:
        raise ValueError(f"dense vacuum limited to n <= {DENSE_LIMIT}")
    dim = 1 << m.n
    for b in range(dim):
        psi = np.zeros(dim, dtype=complex)
        psi[b] = 1.0
        for a, gb in m.pairs:
            spsi = -1j * apply_pauli(a, apply_pauli(gb, psi))
            psi = (psi + spsi) / 2.0
        norm = np.linalg.norm(psi)
        if norm > TOL:
            psi /= norm
            first = np.flatnonzero(np.abs(psi) > TOL)[0]
            psi *= np.abs(psi[first]) / psi[first]
            return psi
    raise ValueError("no joint +1-eigenstate found: inconsistent stabilizers")


def dense_fock_states(m: "FermionQubitMapping", subset: Sequence[int] | None = None) -> dict[int, DenseState]:
    """Dense Fock states |f_m> for all (or selected) occupation vectors.

    Built by dynamic programming: peeling the lowest occupied mode reuses
    the state of the remaining modes, so each state costs one application.
    """
    vac = dense_vacuum(m)
    cache: dict[int, DenseState] = {0: vac}

    def state(f: int) -> DenseState:
        got = cache.get(f)
        if got is not None:
            return got
        low = f & -f
        mode = low.bit_length() - 1
        psi = apply_pauli(m.pairs[mode][0], state(f ^ low))
        cache[f] = psi
        return psi

    wanted = range(1 << m.n) if subset is None else subset
    return {f: state(f) for f in wanted}


@dataclass(frozen=True)
class FockReport:
    """First Fock-basis defect found by the dense sweep."""

    reason: str
    f: int
    deviation: float

    def __str__(self) -> str:
        return f"{self.reason} at f={self.f:b} (deviation {self.deviation:.3g})"


def verify_fock_basis(m: "FermionQubitMapping", tol: float = TOL) -> FockReport | None:
    """Check stabilizer eigenvalues and orthonormality of the Fock basis.

    Exhaustive over f, for n <= 10.  Each |f_m> must be a
    ((-1)^{f_i})-eigenstate of the i-th vacuum stabilizer, and distinct f
    must give orthogonal states.
    """
    if m.n > 10:
        raise ValueError("dense Fock-basis check limited to n <= 10")
    states = dense_fock_states(m)
    for f, psi in states.items():
        for i, (a, b) in enumerate(m.pairs):
            spsi = -1j * apply_pauli(a, apply_pauli(b, psi))
            want = (-1.0) ** ((f >> i) & 1)
            dev = float(np.linalg.norm(spsi - want * psi))
            if dev > tol:
                return FockReport(f"stabilizer {i} eigenvalue is not {want:+.0f}", f, dev)
    # orthonormality: basis-state images are compared by index, general
    # states by a (sampled) Gram matrix
    indexed: dict[int, int] = {}
    general: list[tuple[int, DenseState]] = []
    for f, psi in states.items():
        top = int(np.abs(psi).argmax())
        if abs(abs(psi[top]) - 1.0) <= tol:
            if top in indexed:
                return FockReport(f"duplicate basis state with f={indexed[top]:b}", f, 0.0)
            indexed[top] = f
        else:
            general.append((f, psi))
    for k, (f, psi) in enumerate(general):
        for f2, psi2 in general[k + 1 :][:64]:
            ov = abs(np.vdot(psi, psi2))
            if ov > tol:
                return FockReport(f"states f={f:b} and f={f2:b} overlap", f, float(ov))
    return None


def _subset(n: int, sample: int | None, seed: int) -> list[int] | None:
    """A seeded sample of occupation vectors (always with 0), or None for all."""
    if sample is None:
        if n > 10:
            raise ValueError("exhaustive dense sweep limited to n <= 10; pass sample=")
        return None
    rng = random.Random(seed)
    return sorted({0} | {rng.randrange(1 << n) for _ in range(sample)})


def verify_linear(
    m: "FermionQubitMapping", g, tol: float = TOL, sample: int | None = None, seed: int = 0
) -> FockReport | None:
    """Check |f_m> == |G f> with amplitude exactly +1 for every f."""
    subset = _subset(m.n, sample, seed)
    return _verify_encoded(m, g.rows, 0, tol, subset, "Fock state differs from |Gf>")


def verify_affine(
    m: "FermionQubitMapping", enc, tol: float = TOL
) -> FockReport | None:
    """Check |f_m> == |G (f xor b)> with amplitude exactly +1 for every f."""
    reason = "Fock state differs from |G(f xor b)>"
    return _verify_encoded(m, enc.g.rows, enc.b, tol, None, reason)


def _verify_encoded(m, rows, b, tol, subset, reason) -> FockReport | None:
    """Compare each dense |f_m> with the basis vector |G(f xor b)>, G given by rows."""
    for f, psi in dense_fock_states(m, subset).items():
        v = f ^ b
        bits = sum(((row & v).bit_count() & 1) << i for i, row in enumerate(rows))
        expected = np.zeros_like(psi)
        expected[bits_to_index(m.n, bits)] = 1.0
        dev = float(np.linalg.norm(psi - expected))
        if dev > tol:
            return FockReport(reason, f, dev)
    return None


def verify_lemma1(n: int, tol: float = TOL) -> bool:
    """Creation-operator, even-Majorana and odd-Majorana Fock definitions agree.

    Uses the Jordan-Wigner operators: for every f the three dense products

        (A_0^d)^{f_0} ... (A_{n-1}^d)^{f_{n-1}} |0...0>
        (G_0)^{f_0} (G_2)^{f_1} ... |0...0>
        (-i G_1)^{f_0} (-i G_3)^{f_1} ... |0...0>

    must coincide exactly.
    """
    from .mapping import jordan_wigner

    m = jordan_wigner(n)
    vac = basis_state(n, 0)
    for f in range(1 << n):
        byA = vac.copy()
        byEven = vac.copy()
        byOdd = vac.copy()
        for i in reversed(range(n)):
            if not (f >> i) & 1:
                continue
            a, b = m.pairs[i]
            byA = 0.5 * (apply_pauli(a, byA) - 1j * apply_pauli(b, byA))
            byEven = apply_pauli(a, byEven)
            byOdd = -1j * apply_pauli(b, byOdd)
        if np.linalg.norm(byA - byEven) > tol or np.linalg.norm(byA - byOdd) > tol:
            return False
    return True


def schmidt_rank(psi: DenseState, n: int, cut: int, tol: float = TOL) -> int:
    """Schmidt rank of |psi> across qubits [0, cut) vs [cut, n)."""
    mat = psi.reshape((1 << cut, 1 << (n - cut)))
    svals = np.linalg.svd(mat, compute_uv=False)
    return int(np.sum(svals > np.sqrt(tol)))


def is_product_state(psi: DenseState, n: int, tol: float = TOL) -> bool:
    """True when every single-qubit cut has Schmidt rank 1."""
    for cut in range(1, n):
        if schmidt_rank(psi, n, cut, tol) != 1:
            return False
    return True
