"""Dense state-vector verification of mapping algebra at small qubit counts.

Everything here works on 2^n complex amplitude vectors.  `apply_pauli`
applies a Pauli string one single-qubit 2x2 matrix at a time.  Every Pauli
string is a signed permutation of the computational basis, so each check
runs `apply_pauli` once per operator it needs, on the tag vector
w_b = b + 1, reads the operator's (perm, coeff) off the image's magnitudes,
confirms it on a second fixed probe vector, and from then on applies the
operator as one numpy scatter.  Fock sweeps stream each state as its
support and amplitudes (idx, amp), so applying an operator is one gather
and a computational-basis state costs a few numpy calls whatever n; a
sweep holds only the states on the way to the current one.  For a valid
mapping every amplitude stays in {0, +-1, +-i} (see `verify_fock_basis`),
so every check decides by exact equality, and a state is normalized only
where it leaves the module.  The vacuum stabilizers S_i = -i G_2i G_2i+1
are composed from their pair's two signed permutations, so each Majorana
is read once per check.  The module deliberately shares no code with the
symplectic fast paths so that agreement between the two is meaningful
evidence.  Amplitude index convention: qubit 0 is the most significant
bit, so |f_0 f_1 ... f_{n-1}> sits at index sum f_j 2^{n-1-j}.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

import numpy as np

from .pauli import PauliString

if TYPE_CHECKING:  # pragma: no cover
    from .mapping import FermionQubitMapping

DENSE_LIMIT = 14  # largest n whose 2^n-amplitude vacuum the oracle builds
EXHAUSTIVE_LIMIT = 10  # largest n that the exhaustive checks and sweeps accept

# DenseState: 1-D complex array of length 2^n.
DenseState = np.ndarray
# Action: (perm, coeff) with op|e_b> = coeff[b] |e_perm[b]>.
Action = tuple[np.ndarray, np.ndarray]

_SINGLE = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def bits_to_index(n: int, bits: int) -> int:
    """Convert a bit-vector (bit j = qubit j) to an amplitude index."""
    idx = 0
    for j in range(n):
        if (bits >> j) & 1:
            idx |= 1 << (n - 1 - j)
    return idx


def _apply_single(mat: np.ndarray, psi: np.ndarray, n: int, j: int) -> np.ndarray:
    shaped = psi.reshape((1 << j, 2, 1 << (n - 1 - j)))
    return np.einsum("ab,ibj->iaj", mat, shaped).reshape(psi.shape)


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


def _action(n: int, op: Callable[[DenseState], DenseState]) -> Action:
    """The signed permutation that ``op`` applies, read off one dense image.

    The tag vector w_b = b + 1 marks e_b by its magnitude, so ``op(w)`` must
    hold every magnitude 1..2^n exactly once, and the one at index k names
    the e_b that went there; exact magnitudes make every coefficient unit
    modulus.  A second fixed Gaussian-integer probe confirms exactly that
    ``op`` acts as that signed permutation on a general state.
    """
    tags = np.arange(1, (1 << n) + 1, dtype=float)
    image = op(tags)
    mags = np.abs(image)
    perm = np.argsort(mags)
    # divide part by part: complex division by a real would round +-1 and +-i
    coeff = image.real[perm] / tags + 1j * (image.imag[perm] / tags)
    probe = tags + 1j * tags[::-1]
    if not np.array_equal(mags[perm], tags) or not np.array_equal(_apply((perm, coeff), probe), op(probe)):
        raise AssertionError("pauli action is not a signed permutation")
    return perm, coeff


def _pauli_action(p: PauliString) -> Action:
    return _action(p.n, lambda psi: apply_pauli(p, psi))


def _apply(action: Action, psi: DenseState) -> DenseState:
    """op|psi> for the operator with signed permutation ``action``."""
    perm, coeff = action
    out = np.empty(len(perm), dtype=complex)
    out[perm] = coeff * psi
    return out


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


def check_car(m: "FermionQubitMapping") -> CarReport | None:
    """Verify {G_i, G_j} = 2 delta_ij and Hermiticity on all basis states."""
    if m.n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"dense CAR check limited to n <= {EXHAUSTIVE_LIMIT}")
    actions = [_pauli_action(g) for g in m.gammas]
    dim = 1 << m.n
    ident = np.arange(dim)
    for i, (perm, coeff) in enumerate(actions):
        # G_i^2 = identity
        if np.any(perm[perm] != ident):
            return CarReport("square", i, None, 1.0)
        dev = float(np.abs(coeff * coeff[perm] - 1.0).max())
        if dev:
            return CarReport("square", i, None, dev)
        # Hermiticity: <a|G|b> = conj(<b|G|a>)
        dev = float(np.abs(coeff[perm] - coeff.conj()).max())
        if dev:
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
            if dev:
                return CarReport("anticommutator", i, j, dev)
    return None


def _pair_actions(m: "FermionQubitMapping") -> tuple[Action, Action]:
    """Signed permutations of the G_2i and of the S_i = -i G_2i G_2i+1, as rows.

    Returns (evens, stabilizers): row i of each (n, 2^n) ``perm`` and
    ``coeff`` pair is the action of G_2i, resp. of the vacuum stabilizer
    S_i.  Each pair (a, b) is read once; S_i applies b, then a, so
    S_i|e_x> = -i coeff_a[perm_b[x]] coeff_b[x] |e_{perm_a[perm_b[x]]}>.
    """
    if m.n > DENSE_LIMIT:
        raise ValueError(f"dense vacuum limited to n <= {DENSE_LIMIT}")
    shape = (m.n, 1 << m.n)
    evens = np.empty(shape, dtype=np.intp), np.empty(shape, dtype=complex)
    stabilizers = np.empty(shape, dtype=np.intp), np.empty(shape, dtype=complex)
    for i, (a, b) in enumerate(m.pairs):
        (perm_a, coeff_a), (perm_b, coeff_b) = _pauli_action(a), _pauli_action(b)
        evens[0][i], evens[1][i] = perm_a, coeff_a
        stabilizers[0][i], stabilizers[1][i] = perm_a[perm_b], -1j * coeff_a[perm_b] * coeff_b
    return evens, stabilizers


def dense_vacuum(m: "FermionQubitMapping") -> DenseState:
    """Normalized simultaneous +1-eigenstate of the vacuum stabilizers.

    The global phase makes the first nonzero amplitude real positive.
    """
    vac = _vacuum(m.n, _pair_actions(m)[1])
    return vac / np.linalg.norm(vac)


def _vacuum(n: int, stabilizers: Action) -> DenseState:
    """The vacuum, scaled so that its first nonzero amplitude is 1.

    Applies prod_i (1 + S_i)/2 to computational basis vectors in
    lexicographic order until a nonzero image appears.
    """
    dim = 1 << n
    for b in range(dim):
        psi = np.zeros(dim, dtype=complex)
        psi[b] = 1.0
        for s in zip(*stabilizers):
            psi = (psi + _apply(s, psi)) / 2.0
            if not psi.any():  # every later projector keeps it 0
                break
        else:
            return psi / psi[np.flatnonzero(psi)[0]]
    raise ValueError("no joint +1-eigenstate found: inconsistent stabilizers")


def _densify(n: int, idx: np.ndarray, amp: np.ndarray) -> DenseState:
    """The normalized dense vector of a streamed state."""
    psi = np.zeros(1 << n, dtype=complex)
    psi[idx] = amp / np.linalg.norm(amp)
    return psi


def dense_fock_states(
    m: "FermionQubitMapping", subset: Iterable[int] | None = None
) -> Iterator[tuple[int, DenseState]]:
    """(f, |f_m>) for all occupation vectors in order, or for those in ``subset``.

    The vacuum is built at once; the states are streamed (see `_fock_states`)
    and densified one at a time.
    """
    evens, stabilizers = _pair_actions(m)
    states = _fock_states(evens, _vacuum(m.n, stabilizers), subset)
    return ((f, _densify(m.n, idx, amp)) for f, idx, amp in states)


def _fock_states(
    evens: Action, vac: DenseState, subset: Iterable[int] | None
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """(f, idx, amp): |f_m> as the indices of its nonzero amplitudes and their values.

    |f_m> applies the occupied modes' even Majoranas, the rows of ``evens``,
    to the vacuum, highest first, and the Majorana with signed permutation
    (perm, coeff) sends (idx, amp) to (perm[idx], coeff[idx] * amp).  The
    vacuum's zeros are exact, so its support is read off once and every
    state of a computational vacuum has support 1.

    ``chain`` holds (g, idx, amp) for the growing top parts g of the last f,
    from g = 0 to g = f: at most n + 1 states.  The next f keeps the entries
    that are also its top parts and applies one operator per remaining
    mode, so a sweep in ascending order costs one application per state.
    """
    perms, coeffs = evens
    idx = np.flatnonzero(vac)
    chain = [(0, idx, vac[idx])]
    for f in range(len(vac)) if subset is None else subset:
        # keep g while it equals f's bits from g's lowest set bit up
        while (g := chain[-1][0]) and f & -(g & -g) != g:
            chain.pop()
        g, idx, amp = chain[-1]
        rest = f ^ g
        while rest:
            mode = rest.bit_length() - 1
            rest ^= 1 << mode
            g |= 1 << mode
            idx, amp = perms[mode][idx], coeffs[mode][idx] * amp
            chain.append((g, idx, amp))
        yield f, idx, amp


@dataclass(frozen=True)
class FockReport:
    """First Fock-basis defect found by the dense sweep."""

    reason: str
    f: int
    deviation: float

    def __str__(self) -> str:
        return f"{self.reason} at f={self.f:b} (deviation {self.deviation:.3g})"


def verify_fock_basis(m: "FermionQubitMapping") -> FockReport | None:
    """Check that each |f_m> is a ((-1)^{f_i})-eigenstate of the i-th vacuum stabilizer.

    Exhaustive over f, for n <= EXHAUSTIVE_LIMIT, and exact.  Each S_i is a
    signed permutation with unit coefficients, and for commuting Hermitian
    S_i the projected vacuum's amplitudes are units times one 2^-k
    (Aaronson & Gottesman 2004), so the unit vacuum and every streamed
    state have amplitudes in {0, +-1, +-i} and no product or comparison
    rounds.  A pass certifies an orthonormal Fock basis: every |f_m> has
    the vacuum's norm, and for f != g some unitary S_i has the exact
    eigenvalues s on |f_m> and -s on |g_m>, so
    <f_m|g_m> = <S_i f_m|S_i g_m> = -<f_m|g_m> = 0.

    All n eigenvalues of a state are checked at once on its support: S_i
    sends amp[j] at idx[j] to coeffs[i, idx[j]] * amp[j] at perms[i, idx[j]],
    which must be the support index at position at[i, j] and equal
    (-1)^{f_i} * amp[at[i, j]].  The first failing stabilizer of the first
    failing state is measured on the state's normalized dense vector.
    """
    if m.n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"dense Fock-basis check limited to n <= {EXHAUSTIVE_LIMIT}")
    n, dim = m.n, 1 << m.n
    evens, stabilizers = _pair_actions(m)
    perms, coeffs = stabilizers
    # wants[f, i] = (-1)^{f_i}, the eigenvalue of S_i on |f_m>
    wants = 1 - 2 * ((np.arange(dim)[:, None] >> np.arange(n)) & 1)
    pos = np.full(dim, -1)  # position of each index in the current support
    for f, idx, amp in _fock_states(evens, _vacuum(n, stabilizers), None):
        pos[idx] = np.arange(len(idx))
        at = pos[perms[:, idx]]
        pos[idx] = -1
        matched = coeffs[:, idx] * amp == wants[f][:, None] * amp[at]
        if (at >= 0).all() and matched.all():
            continue
        i = int(np.argmin(((at >= 0) & matched).all(axis=1)))  # the first stabilizer that fails
        psi, want = _densify(n, idx, amp), float(wants[f, i])
        dev = float(np.linalg.norm(_apply((perms[i], coeffs[i]), psi) - want * psi))
        return FockReport(f"stabilizer {i} eigenvalue is not {want:+.0f}", f, dev)
    return None


def _subset(n: int, sample: int | None) -> list[int] | None:
    """A sample of occupation vectors drawn with seed 0 (always with 0), or None for all."""
    if sample is None:
        if n > EXHAUSTIVE_LIMIT:
            raise ValueError(f"exhaustive dense sweep limited to n <= {EXHAUSTIVE_LIMIT}; pass sample=")
        return None
    rng = random.Random(0)
    return sorted({0} | {rng.randrange(1 << n) for _ in range(sample)})


def verify_linear(m: "FermionQubitMapping", g, sample: int | None = None) -> FockReport | None:
    """Check |f_m> == |G f> with amplitude exactly +1 for every f, or for ``sample`` draws."""
    subset = _subset(m.n, sample)
    return _verify_encoded(m, g.rows, 0, subset, "Fock state differs from |Gf>")


def verify_affine(m: "FermionQubitMapping", enc) -> FockReport | None:
    """Check |f_m> == |G (f xor b)> with amplitude exactly +1 for every f."""
    reason = "Fock state differs from |G(f xor b)>"
    return _verify_encoded(m, enc.g.rows, enc.b, None, reason)


def _verify_encoded(m, rows, b, subset, reason) -> FockReport | None:
    """Compare each |f_m> with the basis vector |G(f xor b)>, G given by rows.

    A state must be exactly +1 at that index and zero elsewhere; the first
    that is not is normalized and measured against it.
    """
    n = m.n
    evens, stabilizers = _pair_actions(m)
    for f, idx, amp in _fock_states(evens, _vacuum(n, stabilizers), subset):
        v = f ^ b
        bits = sum(((row & v).bit_count() & 1) << i for i, row in enumerate(rows))
        k = bits_to_index(n, bits)
        if len(idx) == 1 and idx[0] == k and amp[0] == 1.0:
            continue
        expected = np.zeros(1 << n, dtype=complex)
        expected[k] = 1.0
        return FockReport(reason, f, float(np.linalg.norm(_densify(n, idx, amp) - expected)))
    return None
