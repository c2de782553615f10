import numpy as np
import pytest

from fermap import pauli
from fermap.mapping import FermionQubitMapping
from fermap.pauli import PauliString, ProductState

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

STATE_VEC = {
    ("Z", +1): np.array([1, 0], dtype=complex),
    ("Z", -1): np.array([0, 1], dtype=complex),
    ("X", +1): np.array([1, 1], dtype=complex) / np.sqrt(2),
    ("X", -1): np.array([1, -1], dtype=complex) / np.sqrt(2),
    ("Y", +1): np.array([1, 1j], dtype=complex) / np.sqrt(2),
    ("Y", -1): np.array([1, -1j], dtype=complex) / np.sqrt(2),
}


def dense(p: PauliString) -> np.ndarray:
    """Independent dense form: i^phase * kron of X^x Z^z factors."""
    out = np.array([[1j ** p.phase]], dtype=complex)
    for j in range(p.n):
        local = I2
        if (p.x >> j) & 1:
            local = local @ X
        if (p.z >> j) & 1:
            local = local @ Z
        out = np.kron(out, local)
    return out


def dense_state(s: ProductState) -> np.ndarray:
    """Independent dense form: i^phase * kron of the single-qubit eigenvectors."""
    vec = np.array([1j ** s.phase], dtype=complex)
    for st in s.qubit_states:
        vec = np.kron(vec, STATE_VEC[st])
    return vec


def make_mapping(gammas) -> FermionQubitMapping:
    """Arrange a flat list of 2n operators into consecutive pairs."""
    n = len(gammas) // 2
    return FermionQubitMapping(n, tuple((gammas[2 * i], gammas[2 * i + 1]) for i in range(n)))


@pytest.fixture
def product_breaking_two_mode() -> FermionQubitMapping:
    """The two-mode mapping ((X0, -Z0Y1), (Z0X1, Y0)) with entangled vacuum."""
    return FermionQubitMapping(
        2,
        (
            (pauli.parse_pauli("+1 X0", 2), pauli.parse_pauli("-1 Z0 Y1", 2)),
            (pauli.parse_pauli("+1 Z0 X1", 2), pauli.parse_pauli("+1 Y0", 2)),
        ),
    )
