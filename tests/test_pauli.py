"""Exact Pauli-string algebra checked against literal dense matrices."""

import random

import numpy as np
import pytest

from fermap import pauli
from fermap.pauli import PauliString, ProductState

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
MAT = {"I": I2, "X": X, "Y": Y, "Z": Z}

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
        local = np.eye(2, dtype=complex)
        if (p.x >> j) & 1:
            local = local @ X
        if (p.z >> j) & 1:
            local = local @ Z
        out = np.kron(out, local)
    return out


def dense_state(s: ProductState) -> np.ndarray:
    vec = np.array([1j ** s.phase], dtype=complex)
    for st in s.qubit_states:
        vec = np.kron(vec, STATE_VEC[st])
    return vec


def random_pauli(rng, n):
    return PauliString(n, rng.randrange(1 << n), rng.randrange(1 << n), rng.randrange(4))


def test_multiply_xz_is_minus_i_y():
    p = pauli.single(1, "X", 0) * pauli.single(1, "Z", 0)
    assert np.allclose(dense(p), -1j * Y)
    assert p == PauliString(1, 1, 1, 0)


def test_multiply_identity_cases():
    rng = random.Random(0)
    for _ in range(50):
        p = random_pauli(rng, 5)
        assert pauli.multiply(pauli.identity(5), p) == p
        assert pauli.multiply(p, pauli.identity(5)) == p


def test_multiply_derived_two_qubit_case():
    p = pauli.parse_pauli("+1 Z0 X1", 2)
    q = pauli.parse_pauli("+1 Z0 Y1", 2)
    r = pauli.multiply(p, q)
    assert np.allclose(dense(r), dense(p) @ dense(q))
    assert pauli.format_pauli(r) == "+i Z1"


def test_multiply_matches_dense_randomly():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randrange(1, 4)
        p, q = random_pauli(rng, n), random_pauli(rng, n)
        assert np.allclose(dense(pauli.multiply(p, q)), dense(p) @ dense(q))


def test_multiply_associative():
    rng = random.Random(2)
    for _ in range(1000):
        n = rng.randrange(1, 9)
        p, q, r = (random_pauli(rng, n) for _ in range(3))
        assert pauli.multiply(pauli.multiply(p, q), r) == pauli.multiply(p, pauli.multiply(q, r))


def test_multiply_dimension_mismatch():
    with pytest.raises(pauli.DimensionMismatch):
        pauli.multiply(pauli.identity(2), pauli.identity(3))


def test_hermitian_square_is_identity():
    rng = random.Random(3)
    count = 0
    while count < 100:
        p = random_pauli(rng, 6)
        if not p.is_hermitian():
            continue
        assert pauli.multiply(p, p) == pauli.identity(6)
        count += 1


def test_anticommutes_basics():
    assert pauli.anticommutes(pauli.single(1, "X", 0), pauli.single(1, "Y", 0))
    x0 = pauli.parse_pauli("+1 X0", 2)
    x0x1 = pauli.parse_pauli("+1 X0 X1", 2)
    assert not pauli.anticommutes(x0, x0x1)


def test_anticommutes_matches_dense():
    rng = random.Random(4)
    for _ in range(300):
        n = rng.randrange(1, 7)
        p, q = random_pauli(rng, n), random_pauli(rng, n)
        anti = dense(p) @ dense(q) + dense(q) @ dense(p)
        assert pauli.anticommutes(p, q) == bool(np.abs(anti).max() < 1e-12)


def test_jw_majoranas_pairwise_anticommute():
    from fermap.mapping import jordan_wigner

    gammas = jordan_wigner(4).gammas
    for i in range(8):
        for j in range(8):
            assert pauli.anticommutes(gammas[i], gammas[j]) == (i != j)


def test_weight_and_y_count():
    p = pauli.parse_pauli("+1 Z0 Z1 X2", 3)
    assert p.weight() == 3 and p.y_count() == 0
    q = pauli.parse_pauli("+1 Z0 Y1", 2)  # the odd JW majorana of mode 1
    assert q.y_count() == 1


def test_hermiticity_predicate():
    p = pauli.single(1, "X", 0) * pauli.single(1, "Z", 0)  # X0 Z0 = -iY0
    assert not p.is_hermitian()
    assert p.times_i(1).is_hermitian()  # i*X0Z0 = Y0
    rng = random.Random(5)
    for _ in range(200):
        p = random_pauli(rng, 4)
        m = dense(p)
        assert p.is_hermitian() == bool(np.abs(m - m.conj().T).max() < 1e-12)


def test_apply_to_product_state_basics():
    s0 = pauli.computational_state(1, 0)
    out = pauli.apply_to_product_state(pauli.single(1, "X", 0), s0)
    assert out == ProductState(1, (("Z", -1),), 0)

    # gamma_2 = Z0X1 on |00> gives |01> with coefficient +1
    s00 = pauli.computational_state(2, 0)
    g2 = pauli.parse_pauli("+1 Z0 X1", 2)
    out = pauli.apply_to_product_state(g2, s00)
    assert out == pauli.computational_state(2, 0b10)
    assert out.phase == 0


def test_apply_y_phases_match_dense():
    y0 = pauli.single(1, "Y", 0)
    plus = pauli.apply_to_product_state(y0, pauli.computational_state(1, 0))
    minus = pauli.apply_to_product_state(y0, pauli.computational_state(1, 1))
    assert np.allclose(dense_state(plus), Y @ STATE_VEC[("Z", +1)])
    assert np.allclose(dense_state(minus), Y @ STATE_VEC[("Z", -1)])
    assert plus.phase == 1 and minus.phase == 3


def test_apply_matches_dense_on_all_eigenstates():
    rng = random.Random(6)
    for _ in range(300):
        n = rng.randrange(1, 5)
        p = random_pauli(rng, n)
        states = tuple(
            (rng.choice("XYZ"), rng.choice((1, -1))) for _ in range(n)
        )
        s = ProductState(n, states, rng.randrange(4))
        out = pauli.apply_to_product_state(p, s)
        assert np.allclose(dense_state(out), dense(p) @ dense_state(s), atol=1e-12)


def test_apply_commutes_with_multiply():
    rng = random.Random(7)
    for _ in range(1000):
        n = rng.randrange(1, 9)
        p, q = random_pauli(rng, n), random_pauli(rng, n)
        states = tuple((rng.choice("XYZ"), rng.choice((1, -1))) for _ in range(n))
        s = ProductState(n, states, 0)
        via_two = pauli.apply_to_product_state(p, pauli.apply_to_product_state(q, s))
        via_one = pauli.apply_to_product_state(pauli.multiply(p, q), s)
        assert via_two == via_one


def test_restrict_examples():
    p = pauli.parse_pauli("+1 X0 Z1 X2", 3)
    assert pauli.format_pauli(pauli.restrict(p, [0, 2])) == "+1 X0 X2"
    assert pauli.restrict(p, range(3)) == p


def test_restrict_tensor_factorisation():
    rng = random.Random(8)
    cases = [pauli.parse_pauli("+1 Z0 Y1 Z2", 3)] + [random_pauli(rng, 3) for _ in range(100)]
    for p in cases:
        for mask_bits in range(8):
            subset = [j for j in range(3) if (mask_bits >> j) & 1]
            rest = [j for j in range(3) if not (mask_bits >> j) & 1]
            kept = pauli.restrict(p, subset)
            other = pauli.restrict(p, rest)
            other_plain = PauliString(3, other.x, other.z, 0)
            assert np.allclose(dense(p), dense(kept) @ dense(other_plain), atol=1e-12)


def test_restrict_keeps_y_factor_consistent():
    p = pauli.parse_pauli("+1 Z0 Y1 Z2", 3)
    kept = pauli.restrict(p, [1])
    assert pauli.format_pauli(kept) == "+1 Y1"


def test_restrict_out_of_range():
    with pytest.raises(ValueError):
        pauli.restrict(pauli.identity(2), [2])


def test_text_format_round_trip():
    rng = random.Random(9)
    assert pauli.format_pauli(pauli.identity(3)) == "+1 I"
    assert pauli.parse_pauli("+1 I", 3) == pauli.identity(3)
    example = pauli.from_letters(["X", "I", "Z", "I", "I", "Y"], 3)
    assert pauli.format_pauli(example) == "-i X0 Z2 Y5"
    for _ in range(200):
        n = rng.randrange(1, 7)
        p = random_pauli(rng, n)
        assert pauli.parse_pauli(pauli.format_pauli(p), n) == p


def test_parse_rejects_malformed():
    for bad in ("X0", "+2 X0", "+1 X0 X0", "+1 X1 X0", "+1 Q0", "+1 X9"):
        with pytest.raises(ValueError):
            pauli.parse_pauli(bad, 2)


@pytest.mark.parametrize("token", ["X+1", "X-0", "X1_0", "X01", "X\u0663", "X"])
def test_parse_rejects_non_canonical_index(token):
    with pytest.raises(ValueError, match="bad pauli factor"):
        pauli.parse_pauli(f"+1 {token}", 12)


def test_state_chars_round_trip():
    s = pauli.state_from_chars("01+-rl")
    assert s.n == 6 and s.phase == 0
    assert str(s) == "+1 |01+-rl>"
    with pytest.raises(ValueError):
        pauli.state_from_chars("01q")


def test_square_is_plus_or_minus_identity():
    rng = random.Random(10)
    for _ in range(200):
        p = random_pauli(rng, 5)
        sq = pauli.multiply(p, p)
        assert (sq.x, sq.z) == (0, 0) and sq.phase in (0, 2)
