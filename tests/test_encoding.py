"""Affine encodings: tableaux, Majorana formulas, detection, linearization."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import dense
from fermap import encoding, equiv, gf2, mapping, oracle, pauli, ttree
from fermap.encoding import AffineEncoding, NotClassical
from fermap.gf2 import BinMatrix


def random_affine(rng, n) -> AffineEncoding:
    g = gf2.random_invertible(n, rng.randrange(10**6))
    return AffineEncoding(g, rng.randrange(1 << n))


def test_affine_encoding_requires_invertible():
    with pytest.raises(gf2.Singular):
        AffineEncoding(BinMatrix(2, (0b11, 0b11)), 0)


def test_tableau_identity():
    tab = encoding.tableau_of_affine(AffineEncoding(gf2.identity_matrix(2), 0))
    assert tab.columns == (0b01, 0b10, 0b0100, 0b1000)
    assert tab.signs == 0
    assert pauli.format_pauli(tab.image(0)) == "+1 X0"
    assert pauli.format_pauli(tab.image(2)) == "+1 Z0"


def test_tableau_offset_signs_sit_on_z_half():
    tab = encoding.tableau_of_affine(AffineEncoding(gf2.identity_matrix(2), 0b01))
    assert tab.signs == 0b0100  # sign on the Z-image of qubit 0 only
    assert pauli.format_pauli(tab.image(2)) == "-1 Z0"
    assert pauli.format_pauli(tab.image(3)) == "+1 Z1"


def test_tableau_parity_blocks():
    """X images are X_{U(i)}, Z images are Z_{F(i)} for the parity matrix."""
    g = gf2.named_matrix("parity", 3)
    tab = encoding.tableau_of_affine(AffineEncoding(g, 0))
    for i in range(3):
        u, f, _, _ = gf2.ufpr_sets(g, i)
        ximg = tab.image(i)
        zimg = tab.image(3 + i)
        assert ximg.z == 0 and {j for j in range(3) if (ximg.x >> j) & 1} == u
        assert zimg.x == 0 and {j for j in range(3) if (zimg.z >> j) & 1} == f


def test_tableau_images_match_dense_conjugation():
    """Conjugate each X_i/Z_i through the dense basis-permutation unitary."""
    import numpy as np

    rng = random.Random(30)
    for _ in range(10):
        n = rng.randrange(1, 4)
        enc = random_affine(rng, n)
        dim = 1 << n
        u = np.zeros((dim, dim), dtype=complex)
        for f in range(dim):
            u[oracle.bits_to_index(n, gf2.mat_vec(enc.g, f ^ enc.b)), oracle.bits_to_index(n, f)] = 1.0
        tab = encoding.tableau_of_affine(enc)
        for c in range(2 * n):
            gen = pauli.PauliString(n, 1 << c, 0) if c < n else pauli.PauliString(n, 0, 1 << (c - n))
            want = u @ dense(gen) @ u.conj().T
            got = dense(tab.image(c))
            assert np.abs(want - got).max() < 1e-12


def test_tableau_dump_shape():
    tab = encoding.tableau_of_affine(AffineEncoding(gf2.identity_matrix(2), 0b10))
    lines = tab.dump().splitlines()
    assert len(lines) == 4 and all(len(ln) == 5 for ln in lines)
    assert lines == ["10000", "01000", "00100", "00011"]


def test_majoranas_identity_is_jordan_wigner():
    for n in (1, 2, 5):
        enc = AffineEncoding(gf2.identity_matrix(n), 0)
        assert encoding.majoranas_of_affine(enc) == mapping.jordan_wigner(n)


def test_majoranas_affine_example():
    """G = identity, b = (1,0): the worked two-mode affine encoding."""
    enc = AffineEncoding(gf2.identity_matrix(2), 0b01)
    m = encoding.majoranas_of_affine(enc)
    assert [pauli.format_pauli(g) for g in m.gammas] == [
        "+1 X0",
        "-1 Y0",
        "-1 Z0 X1",
        "-1 Z0 Y1",
    ]
    assert mapping.fock_state(m, 0b11) == pauli.computational_state(2, 0b10)


def test_majoranas_random_affine_against_oracle():
    rng = random.Random(31)
    for _ in range(15):
        n = rng.randrange(1, 6)
        enc = random_affine(rng, n)
        m = encoding.majoranas_of_affine(enc)
        assert mapping.validate(m) is None
        assert oracle.check_car(m) is None
        assert oracle.verify_affine(m, enc) is None


def test_majoranas_linear_formula_shape():
    """For b = 0: G_2i = X_U Z_P and G_2i+1 = i X_U Z_R, Hermitian each."""
    rng = random.Random(32)
    for _ in range(10):
        n = rng.randrange(1, 7)
        g = gf2.random_invertible(n, rng.randrange(10**6))
        m = encoding.majoranas_of_affine(AffineEncoding(g, 0))
        for i in range(n):
            u, _, p, r = gf2.ufpr_sets(g, i)
            even, odd = m.pairs[i]
            assert even == pauli.PauliString(n, _mask(u), _mask(p), 0)
            assert odd == pauli.PauliString(n, _mask(u), _mask(r), 1)
            assert even.is_hermitian() and odd.is_hermitian()


def test_majoranas_of_affine_inverts_once(monkeypatch):
    """G is inverted once, when the encoding is checked; the formulas reuse that inverse."""
    g = gf2.random_invertible(6, 36)
    calls = []
    real_invert = gf2.invert
    monkeypatch.setattr(gf2, "invert", lambda g: calls.append(g) or real_invert(g))
    enc = AffineEncoding(g, 0b101101)
    assert calls == [g] and gf2.mat_mul(g, enc.ginv) == gf2.identity_matrix(6)
    calls.clear()
    encoding.majoranas_of_affine(enc)
    encoding.tableau_of_affine(enc)
    assert calls == []
    # the kept inverse is not part of the encoding's identity
    assert repr(enc) == f"AffineEncoding(g={g!r}, b=45)"
    assert enc == AffineEncoding(g, 0b101101) and hash(enc) == hash(AffineEncoding(g, 0b101101))


def _mask(indices):
    out = 0
    for j in indices:
        out |= 1 << j
    return out


def test_tableau_conjugation_reproduces_majoranas():
    """Pushing each JW string through the tableau gives the affine operators.

    The image of i^k X^x Z^z is i^k times the product of the images of the
    X_j in x, then of the Z_j in z, signs and phase exact.
    """
    rng = random.Random(33)
    for _ in range(10):
        n = rng.randrange(1, 6)
        enc = random_affine(rng, n)
        tab = encoding.tableau_of_affine(enc)
        jw = mapping.jordan_wigner(n)
        m = encoding.majoranas_of_affine(enc)
        for p, want in zip(jw.gammas, m.gammas):
            image = pauli.identity(n).times_i(p.phase)
            for c in [*gf2.set_bits(p.x), *(n + j for j in gf2.set_bits(p.z))]:
                image = image * tab.image(c)
            assert image == want


def test_detect_classical_jordan_wigner():
    enc = encoding.detect_classical(mapping.jordan_wigner(4))
    assert isinstance(enc, AffineEncoding)
    assert enc.g == gf2.identity_matrix(4) and enc.b == 0


def test_detect_classical_affine_example():
    m = encoding.majoranas_of_affine(AffineEncoding(gf2.identity_matrix(2), 0b01))
    enc = encoding.detect_classical(m)
    assert isinstance(enc, AffineEncoding)
    assert enc.g == gf2.identity_matrix(2) and enc.b == 0b01


def test_detect_classical_rejects_product_breaking(product_breaking_two_mode):
    res = encoding.detect_classical(product_breaking_two_mode)
    assert isinstance(res, NotClassical)
    assert "entangled" in res.reason


def test_detect_classical_rejects_non_computational_vacuum():
    from fermap import ttree

    t = ttree.parse_tree("(0 Z=(1))")
    m = ttree.pair_for_vacuum(t, pauli.state_from_chars("+0"))
    res = encoding.detect_classical(m)
    assert isinstance(res, NotClassical)


def test_detect_classical_rejects_imaginary_phases():
    """The legacy all-|0> tree pairing has +/-i Fock phases, so not classical."""
    from fermap import ttree

    t = ttree.parse_tree("(0 X=(1) Y=(2 Z=(3)) Z=(4))")
    m = ttree.legacy_pairing(t)
    res = encoding.detect_classical(m)
    assert isinstance(res, NotClassical)
    assert res.f is not None


def test_detect_classical_rejects_sign_defect_beyond_single_excitations():
    """Valid n = 3 mapping whose single excitations are all +1 but f = 11 is not."""
    m = mapping.parse_mapping(
        "n=3\n"
        "pair 0: -1 Y0 Y2 ; +1 X0 Y2\n"
        "pair 1: +1 X1 X2 ; +1 Y1 X2\n"
        "pair 2: +1 Z1 X2 ; +1 Z0 Y2\n"
    )
    assert mapping.validate(m) is None
    res = encoding.detect_classical(m)
    assert isinstance(res, NotClassical)
    assert res.f == 0b11 and res.state == mapping.fock_state(m, 0b11)
    assert str(res.state) == "-1 |110>"


@st.composite
def classical_candidates(draw):
    """Affine encodings and tree pairings, then random sign changes and braids."""
    n = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 10**6))
    kind = draw(st.sampled_from(("affine", "canonical", "braided", "legacy")))
    if kind == "affine":
        b = draw(st.integers(0, (1 << n) - 1))
        m = encoding.majoranas_of_affine(AffineEncoding(gf2.random_invertible(n, seed), b))
    else:
        pairing = {
            "canonical": ttree.canonical_mapping,
            "braided": ttree.braided_real_pairing,
            "legacy": ttree.legacy_pairing,
        }[kind]
        m = pairing(ttree.random_tree(n, seed))
    word = draw(st.lists(
        st.one_of(
            st.builds(equiv.SignChange, st.integers(0, 2 * n - 1)),
            st.builds(equiv.PairBraid, st.integers(0, n - 1), st.sampled_from((1, -1))),
        ),
        max_size=4,
    ))
    return equiv.apply_symmetries(m, word)


@settings(max_examples=150, deadline=None)
@given(classical_candidates())
def test_detect_classical_agrees_with_exhaustive_sweep(m):
    states = [mapping.fock_state(m, f) for f in range(1 << m.n)]
    res = encoding.detect_classical(m)
    if isinstance(res, AffineEncoding):
        for f, state in enumerate(states):
            assert state == pauli.computational_state(m.n, gf2.mat_vec(res.g, f ^ res.b))
    else:
        assert states[res.f] == res.state
        assert res.state.phase != 0 or not res.state.is_computational()


def test_detect_classical_round_trip():
    rng = random.Random(34)
    for _ in range(25):
        n = rng.randrange(1, 7)
        enc = random_affine(rng, n)
        m = encoding.majoranas_of_affine(enc)
        got = encoding.detect_classical(m)
        assert isinstance(got, AffineEncoding)
        assert (got.g, got.b) == (enc.g, enc.b)


def test_affine_to_linear_affine_example():
    enc = AffineEncoding(gf2.identity_matrix(2), 0b01)
    m = encoding.majoranas_of_affine(enc)
    linear, flips = encoding.affine_to_linear(m, enc)
    assert linear == mapping.jordan_wigner(2)
    assert flips == 0b1110  # signs of gamma_1, gamma_2, gamma_3 differ


def test_affine_to_linear_fixed_point():
    g = gf2.named_matrix("parity", 3)
    enc = AffineEncoding(g, 0)
    m = encoding.majoranas_of_affine(enc)
    linear, flips = encoding.affine_to_linear(m, enc)
    assert linear == m and flips == 0


def test_affine_to_linear_unsigned_parts_match():
    rng = random.Random(35)
    for _ in range(20):
        n = rng.randrange(1, 7)
        enc = random_affine(rng, n)
        m = encoding.majoranas_of_affine(enc)
        linear, flips = encoding.affine_to_linear(m, enc)
        assert linear == encoding.majoranas_of_affine(AffineEncoding(enc.g, 0))
        for i, (a, b) in enumerate(zip(m.gammas, linear.gammas)):
            assert (a.x, a.z) == (b.x, b.z)
            assert (flips >> i) & 1 == (a.phase != b.phase)
        if n <= 5:
            assert oracle.verify_linear(linear, enc.g) is None


def test_detect_classical_and_affine_to_linear_invert_sparingly(monkeypatch):
    """detect_classical inverts G once, in AffineEncoding's check; affine_to_linear never."""
    enc = AffineEncoding(gf2.random_invertible(6, 37), 0b011010)
    m = encoding.majoranas_of_affine(enc)
    calls = []
    real_invert = gf2.invert
    monkeypatch.setattr(gf2, "invert", lambda g: calls.append(g) or real_invert(g))
    assert encoding.detect_classical(m) == enc
    assert calls == [enc.g]
    calls.clear()
    encoding.affine_to_linear(m, enc)
    assert calls == []


def test_affine_to_linear_precondition():
    enc = AffineEncoding(gf2.identity_matrix(2), 0b01)
    with pytest.raises(ValueError):
        encoding.affine_to_linear(mapping.jordan_wigner(2), enc)
