"""Mapping validation, vacua, Fock states and ladder-operator transforms."""

import random
from fractions import Fraction

import pytest

from fermap import gf2, mapping, pauli, ttree
from fermap.mapping import FermionQubitMapping, NonProduct


def random_product_state(rng, n):
    return pauli.state_from_chars("".join(rng.choice("01+-rl") for _ in range(n)))


def test_jordan_wigner_strings():
    m = mapping.jordan_wigner(2)
    assert [pauli.format_pauli(g) for g in m.gammas] == [
        "+1 X0",
        "+1 Y0",
        "+1 Z0 X1",
        "+1 Z0 Y1",
    ]


def test_named_bravyi_kitaev_two_modes():
    m = mapping.named_mapping("bravyi_kitaev", 2)
    assert [pauli.format_pauli(g) for g in m.gammas] == [
        "+1 X0",
        "+1 Y0 Z1",
        "-1 Y0 Y1",
        "+1 Y0 X1",
    ]


def test_named_bravyi_kitaev_needs_power_of_two():
    with pytest.raises(ValueError):
        mapping.named_mapping("bravyi_kitaev", 3)


def test_validate_named_mappings():
    assert mapping.validate(mapping.jordan_wigner(8)) is None
    assert mapping.validate(mapping.named_mapping("parity", 5)) is None
    assert mapping.validate(mapping.named_mapping("bravyi_kitaev", 8)) is None


def test_validate_reports_duplicate_direction():
    m = mapping.jordan_wigner(2)
    pairs = (m.pairs[0], (m.pairs[1][0], pauli.parse_pauli("+1 X0", 2)))
    bad = mapping.validate(FermionQubitMapping(2, pairs))
    assert bad is not None
    assert bad.kind == "anticommutation"
    assert (bad.i, bad.j) == (0, 3)  # gamma_0 = X0 equals the replaced gamma_3
    assert not pauli.anticommutes(pauli.parse_pauli("+1 X0", 2), pairs[1][1])


def test_validate_reports_non_hermitian():
    m = mapping.jordan_wigner(1)
    pairs = ((m.pairs[0][0], m.pairs[0][1].times_i(1)),)
    bad = mapping.validate(FermionQubitMapping(1, pairs))
    assert bad is not None and bad.kind == "hermiticity" and bad.i == 1


def test_validate_tree_pairings():
    rng = random.Random(20)
    for _ in range(50):
        n = rng.randrange(1, 9)
        t = ttree.random_tree(n, rng.randrange(10**6))
        m = ttree.pair_for_vacuum(t, random_product_state(rng, n))
        assert mapping.validate(m) is None


def test_vacuum_stabilizers_jw():
    m = mapping.jordan_wigner(4)
    stabs = mapping.vacuum_stabilizers(m)
    assert [pauli.format_pauli(s) for s in stabs] == ["+1 Z0", "+1 Z1", "+1 Z2", "+1 Z3"]


def test_vacuum_stabilizers_affine_example():
    """The affine example mapping has stabilizers (-Z0, Z1) and vacuum |10>."""
    from fermap import encoding

    m = encoding.majoranas_of_affine(encoding.AffineEncoding(gf2.identity_matrix(2), 0b01))
    stabs = mapping.vacuum_stabilizers(m)
    assert [pauli.format_pauli(s) for s in stabs] == ["-1 Z0", "+1 Z1"]
    assert mapping.vacuum_state(m) == pauli.state_from_chars("10")


def test_vacuum_state_jw():
    assert mapping.vacuum_state(mapping.jordan_wigner(3)) == pauli.computational_state(3, 0)


def test_vacuum_non_product(product_breaking_two_mode):
    vac = mapping.vacuum_state(product_breaking_two_mode)
    assert isinstance(vac, NonProduct)


@pytest.mark.parametrize("n", [2, 11])
def test_vacuum_inconsistent_signs_raise(n):
    """Pairs (X0, Y0), (Y0, X0) demand both +Z0 and -Z0 of the vacuum."""
    x0, y0 = pauli.single(n, "X", 0), pauli.single(n, "Y", 0)
    m = FermionQubitMapping(n, ((x0, y0), (y0, x0)) + mapping.jordan_wigner(n).pairs[2:])
    assert [str(s) for s in mapping.vacuum_stabilizers(m)[:2]] == ["+1 Z0", "-1 Z0"]
    with pytest.raises(ValueError, match="inconsistent signs"):
        mapping.vacuum_state(m)


def test_vacuum_stabilizers_of_parity_are_z_only():
    m = mapping.named_mapping("parity", 3)
    for s in mapping.vacuum_stabilizers(m):
        assert s.x == 0  # products of Z only


def test_fock_state_jw():
    m = mapping.jordan_wigner(4)
    st = mapping.fock_state(m, 0b0110)
    assert st == pauli.computational_state(4, 0b0110)
    assert st.phase == 0


def test_fock_state_zero_is_vacuum():
    for m in (mapping.jordan_wigner(3), mapping.named_mapping("parity", 4)):
        assert mapping.fock_state(m, 0) == mapping.vacuum_state(m)


def test_fock_state_affine_example():
    from fermap import encoding

    m = encoding.majoranas_of_affine(encoding.AffineEncoding(gf2.identity_matrix(2), 0b01))
    st = mapping.fock_state(m, 0b11)
    assert st == pauli.computational_state(2, 0b10)  # |01> in qubit order 0,1
    assert st.phase == 0


def test_fock_state_requires_product_vacuum(product_breaking_two_mode):
    with pytest.raises(ValueError):
        mapping.fock_state(product_breaking_two_mode, 1)


def test_fock_states_are_stabilizer_eigenstates():
    """|f_m> is a ((-1)^{f_i})-eigenstate of stabilizer i, phases exact."""
    rng = random.Random(21)
    cases = [mapping.jordan_wigner(4), mapping.named_mapping("parity", 5)]
    for seed in range(6):
        t = ttree.random_tree(rng.randrange(2, 7), seed)
        cases.append(ttree.canonical_mapping(t))
    for m in cases:
        stabs = mapping.vacuum_stabilizers(m)
        for f in range(1 << m.n):
            st = mapping.fock_state(m, f)
            for i, s in enumerate(stabs):
                out = pauli.apply_to_product_state(s, st)
                want = st if not (f >> i) & 1 else st.with_phase(st.phase + 2)
                assert out == want


def test_lemma1_even_and_odd_fock_constructions_agree():
    """Even-majorana and (-i * odd-majorana) products build identical Fock states."""
    rng = random.Random(22)
    cases = [mapping.jordan_wigner(n) for n in range(1, 6)]
    for seed in range(5):
        cases.append(ttree.canonical_mapping(ttree.random_tree(rng.randrange(1, 6), seed)))
    for m in cases:
        vac = mapping.vacuum_state(m)
        for f in range(1 << m.n):
            even = vac
            odd = vac
            for i in reversed(range(m.n)):
                if (f >> i) & 1:
                    even = pauli.apply_to_product_state(m.pairs[i][0], even)
                    odd = pauli.apply_to_product_state(m.pairs[i][1].times_i(3), odd)
            assert even == odd
            assert even == mapping.fock_state(m, f)


def test_annihilation_jw():
    m = mapping.jordan_wigner(2)
    a1 = mapping.annihilation(m, 1)
    assert str(a1) == "(1/2+0i) Z0 X1 + (0+1/2i) Z0 Y1"


def test_annihilation_squares_to_zero():
    rng = random.Random(23)
    cases = [mapping.jordan_wigner(3), mapping.named_mapping("bravyi_kitaev", 4)]
    for seed in range(5):
        cases.append(ttree.canonical_mapping(ttree.random_tree(rng.randrange(1, 7), seed)))
    for m in cases:
        for i in range(m.n):
            a = mapping.annihilation(m, i)
            assert (a * a).is_zero()


def test_number_operator_jw():
    m = mapping.jordan_wigner(3)
    num = mapping.number_operator(m, 1)
    half = (Fraction(1, 2), Fraction(0))
    minus_half = (Fraction(-1, 2), Fraction(0))
    assert num.terms == (
        (half, pauli.identity(3)),
        (minus_half, pauli.single(3, "Z", 1)),
    )


def test_ladder_term_matches_number_operator():
    rng = random.Random(24)
    for seed in range(8):
        t = ttree.random_tree(rng.randrange(1, 7), seed)
        m = ttree.canonical_mapping(t)
        for i in range(m.n):
            assert mapping.transform_ladder_term(m, [(i, True), (i, False)]) == mapping.number_operator(m, i)


def test_transform_majorana_monomial():
    m = mapping.jordan_wigner(3)
    out = mapping.transform_majorana_monomial(m, [0, 1])
    assert out == pauli.multiply(m.gamma(0), m.gamma(1))
    with pytest.raises(ValueError):
        mapping.transform_majorana_monomial(m, [6])


def test_weight_stats_jw():
    for n in (1, 3, 6):
        ws = mapping.weight_stats(mapping.jordan_wigner(n))
        assert ws.max_weight == n
        assert ws.mean_weight == Fraction(n + 1, 2)


def test_weight_stats_bk_bound():
    ws = mapping.weight_stats(mapping.named_mapping("bravyi_kitaev", 8))
    assert ws.max_weight <= 4


def test_weight_stats_complete_tree():
    m = ttree.canonical_mapping(ttree.complete_tree(3))
    ws = mapping.weight_stats(m)
    assert ws.max_weight == 3 and ws.mean_weight == 3


def test_mapping_file_round_trip():
    rng = random.Random(25)
    cases = [mapping.jordan_wigner(4), mapping.named_mapping("bravyi_kitaev", 4)]
    for seed in range(5):
        cases.append(ttree.braided_real_pairing(ttree.random_tree(rng.randrange(1, 7), seed)))
    for m in cases:
        assert mapping.parse_mapping(mapping.format_mapping(m)) == m


def test_parse_mapping_rejects_malformed():
    good = mapping.format_mapping(mapping.jordan_wigner(2))
    for bad in (
        good.replace("n=2", "m=2"),
        good.replace("pair 1", "pair 2"),
        good.replace(";", ","),
        good + "pair 2: +1 X0 ; +1 Y0\n",
    ):
        with pytest.raises(ValueError):
            mapping.parse_mapping(bad)


def test_classical_fock_states_are_injective():
    """Distinct occupation vectors hit distinct basis labels when classical."""
    rng = random.Random(26)
    for seed in range(8):
        n = rng.randrange(1, 7)
        t = ttree.random_tree(n, seed)
        m = ttree.canonical_mapping(t)
        labels = {mapping.fock_state(m, f).bits() for f in range(1 << n)}
        assert len(labels) == 1 << n
