"""Ternary trees: path strings, pairings, canonical mappings, revacuuming."""

import random

import numpy as np
import pytest

from fermap import gf2, mapping, oracle, pauli, ttree
from fermap.ttree import MalformedTree


def random_product_state(rng, n):
    return pauli.state_from_chars("".join(rng.choice("01+-rl") for _ in range(n)))


CHAIN = "(0 Z=(1))"
FIVE = "(0 X=(1) Y=(2 Z=(3)) Z=(4))"


def test_parse_format_round_trip():
    rng = random.Random(40)
    for text in (CHAIN, FIVE, "(0)"):
        t = ttree.parse_tree(text)
        assert ttree.parse_tree(ttree.format_tree(t)) == t
    for seed in range(20):
        t = ttree.random_tree(rng.randrange(1, 10), seed)
        assert ttree.parse_tree(ttree.format_tree(t)) == t


def test_parse_is_whitespace_insensitive():
    assert ttree.parse_tree("(0 Z = ( 1 ))") == ttree.parse_tree(CHAIN)


def test_parse_rejects_malformed():
    for bad in (
        "(0 X=(1)",          # unbalanced
        "(0 X=(1) X=(2))",   # duplicate slot
        "(0 X=(2))",         # labels not 0..n-1
        "(0 X=(0))",         # repeated label
        "(0) (1)",           # trailing input
    ):
        with pytest.raises(MalformedTree):
            ttree.parse_tree(bad)


def test_path_paulis_chain():
    t = ttree.parse_tree(CHAIN)
    got = {str(p) for p in ttree.path_paulis(t)}
    assert got == {"+1 X0", "+1 Y0", "+1 Z0 X1", "+1 Z0 Y1", "+1 Z0 Z1"}


def test_path_paulis_single_vertex():
    t = ttree.parse_tree("(0)")
    assert {str(p) for p in ttree.path_paulis(t)} == {"+1 X0", "+1 Y0", "+1 Z0"}


def test_path_paulis_maximally_anticommuting():
    rng = random.Random(41)
    for seed in range(20):
        n = rng.randrange(1, 9)
        t = ttree.random_tree(n, seed)
        strings = ttree.path_paulis(t)
        assert len(strings) == 2 * n + 1
        assert len({(s.x, s.z) for s in strings}) == 2 * n + 1
        for i in range(len(strings)):
            for j in range(i + 1, len(strings)):
                assert pauli.anticommutes(strings[i], strings[j])


def test_pair_for_vacuum_chain_all_zero_is_jw():
    t = ttree.parse_tree(CHAIN)
    m = ttree.pair_for_vacuum(t, pauli.computational_state(2, 0))
    assert m == mapping.jordan_wigner(2)


def test_legacy_pairing_equals_all_zero_vacuum():
    for seed in range(10):
        t = ttree.random_tree(5, seed)
        assert ttree.legacy_pairing(t) == ttree.pair_for_vacuum(
            t, pauli.computational_state(5, 0)
        )


def test_pair_for_vacuum_uses_distinct_path_strings():
    rng = random.Random(42)
    for seed in range(25):
        n = rng.randrange(1, 9)
        t = ttree.random_tree(n, seed)
        v = random_product_state(rng, n)
        m = ttree.pair_for_vacuum(t, v)
        pool = {(s.x, s.z) for s in ttree.path_paulis(t)}
        used = {(g.x, g.z) for g in m.gammas}
        assert len(used) == 2 * n and used <= pool


def test_pair_for_vacuum_vacuum_matches_symbolically_and_densely():
    rng = random.Random(43)
    for seed in range(20):
        n = rng.randrange(1, 8)
        t = ttree.random_tree(n, seed)
        v = random_product_state(rng, n)
        m = ttree.pair_for_vacuum(t, v)
        assert mapping.validate(m) is None
        assert mapping.vacuum_state(m) == v
        dense = oracle.dense_vacuum(m)
        want = oracle.dense_product_state(v)
        want = want / want[np.flatnonzero(np.abs(want) > 1e-9)[0]] * abs(
            want[np.flatnonzero(np.abs(want) > 1e-9)[0]]
        )
        assert np.linalg.norm(dense - want) < 1e-9


def test_pair_for_vacuum_five_vertex_example():
    """The 5-vertex tree with vacuum |0,1,+i,1,+> from the pairing walkthrough."""
    t = ttree.parse_tree(FIVE)
    v = pauli.state_from_chars("01r1+")
    m = ttree.pair_for_vacuum(t, v)
    assert mapping.validate(m) is None
    assert mapping.vacuum_state(m) == v
    dense = oracle.dense_vacuum(m)
    overlap = abs(np.vdot(dense, oracle.dense_product_state(v)))
    assert abs(overlap - 1.0) < 1e-9


def test_pair_for_vacuum_rejects_phased_state():
    t = ttree.parse_tree(CHAIN)
    v = pauli.computational_state(2, 0).with_phase(1)
    with pytest.raises(ValueError):
        ttree.pair_for_vacuum(t, v)


def test_braided_real_pairing_phases():
    rng = random.Random(44)
    for seed in range(20):
        n = rng.randrange(1, 8)
        t = ttree.random_tree(n, seed)
        m = ttree.braided_real_pairing(t)
        assert mapping.validate(m) is None
        assert mapping.vacuum_state(m) == pauli.computational_state(n, 0)
        for f in range(1 << n):
            assert mapping.fock_state(m, f).phase in (0, 2)


def test_braided_real_pairing_noop_when_even():
    """A tree whose pairing has all-even first elements stays untouched."""
    t = ttree.parse_tree(CHAIN)
    base = ttree.legacy_pairing(t)
    assert all(a.y_count() % 2 == 0 for a, _ in base.pairs)
    assert ttree.braided_real_pairing(t) == base


def test_canonical_mapping_chain_is_jw():
    assert ttree.canonical_mapping(ttree.parse_tree(CHAIN)) == mapping.jordan_wigner(2)


def test_canonical_mapping_y_chain_is_two_mode_bk():
    t = ttree.parse_tree("(0 Y=(1))")
    assert ttree.canonical_mapping(t) == mapping.named_mapping("bravyi_kitaev", 2)


def test_canonical_paths_structure():
    t = ttree.parse_tree(FIVE)
    paths = ttree.canonical_paths(t)
    assert len(paths) == 11
    # the final path takes only Z edges
    assert all(letter == "Z" for _, letter in paths[-1])


def test_canonical_mapping_is_classical_with_zero_offset():
    rng = random.Random(45)
    for seed in range(30):
        n = rng.randrange(1, 9)
        t = ttree.random_tree(n, seed)
        m = ttree.canonical_mapping(t)
        assert mapping.validate(m) is None
        from fermap import encoding

        enc = encoding.detect_classical(m)
        assert isinstance(enc, encoding.AffineEncoding)
        assert enc.b == 0


def test_canonical_mapping_fock_phases_all_plus_one():
    rng = random.Random(46)
    for seed in range(20):
        n = rng.randrange(1, 8)
        t = ttree.random_tree(n, seed)
        m = ttree.canonical_mapping(t)
        for f in range(1 << n):
            st = mapping.fock_state(m, f)
            assert st.phase == 0 and st.is_computational()


def test_tree_matrix_chain_is_identity():
    assert ttree.tree_matrix(ttree.parse_tree(CHAIN)) == gf2.identity_matrix(2)


def test_tree_matrix_reproduces_fock_states():
    rng = random.Random(47)
    for seed in range(15):
        n = rng.randrange(1, 8)
        t = ttree.random_tree(n, seed)
        m = ttree.canonical_mapping(t)
        g = ttree.tree_matrix(t)
        for f in range(1 << n):
            st = mapping.fock_state(m, f)
            assert st.bits() == gf2.mat_vec(g, f)
        assert oracle.verify_linear(m, g) is None


def test_complete_tree_sizes_and_shape():
    assert ttree.complete_tree(1).n == 1
    t4 = ttree.complete_tree(2)
    assert t4.n == 4
    root = t4.root
    assert all(t4.child(root, ell) is not None for ell in "XYZ")
    assert ttree.complete_tree(3).n == 13
    assert ttree.complete_tree(4).n == 40


def test_complete_tree_matrix_nesting():
    """Top-left m x m block of the (3m+1)-vertex matrix equals the m-vertex one."""
    mats = {d: ttree.tree_matrix(ttree.complete_tree(d)) for d in (1, 2, 3, 4)}
    for small, big in ((1, 2), (2, 3), (3, 4)):
        k = mats[small].n
        top_left = tuple(r & ((1 << k) - 1) for r in mats[big].rows[:k])
        assert top_left == mats[small].rows


def test_revacuum_fixed_point():
    rng = random.Random(48)
    for seed in range(10):
        n = rng.randrange(1, 8)
        t = ttree.random_tree(n, seed)
        v = random_product_state(rng, n)
        m = ttree.pair_for_vacuum(t, v)
        t2, m2 = ttree.revacuum(t, m, v)
        assert t2 == t and m2 == m


def test_revacuum_reaches_target():
    rng = random.Random(49)
    for seed in range(20):
        n = rng.randrange(1, 8)
        t = ttree.random_tree(n, seed)
        m = ttree.pair_for_vacuum(t, random_product_state(rng, n))
        target = random_product_state(rng, n)
        t2, m2 = ttree.revacuum(t, m, target)
        assert mapping.validate(m2) is None
        assert mapping.vacuum_state(m2) == target
        # new mapping is t2-based
        pool = {(s.x, s.z) for s in ttree.path_paulis(t2)}
        assert {(g.x, g.z) for g in m2.gammas} <= pool


def test_revacuum_preserves_braids_and_signs():
    t = ttree.parse_tree(FIVE)
    m = ttree.braided_real_pairing(t)
    braided = [i for i, (a, b) in enumerate(m.pairs) if a.y_count() % 2]
    target = pauli.state_from_chars("1+r0l")
    t2, m2 = ttree.revacuum(t, m, target)
    assert mapping.vacuum_state(m2) == target
    assert mapping.validate(m2) is None


def test_revacuum_swap_xy_flips_z_vacuum_bit():
    """Exchanging the X and Y roles on one qubit flips |1> to |0> there."""
    t = ttree.parse_tree(CHAIN)
    m = ttree.pair_for_vacuum(t, pauli.state_from_chars("10"))
    t2, m2 = ttree.revacuum(t, m, pauli.state_from_chars("00"))
    assert t2 == t  # Z edges stay Z under the X<->Y exchange
    assert m2 == mapping.jordan_wigner(2)
    assert mapping.vacuum_state(m2) == pauli.computational_state(2, 0)


def test_revacuum_rejects_product_breaking(product_breaking_two_mode):
    t = ttree.parse_tree(CHAIN)
    with pytest.raises(ValueError):
        ttree.revacuum(t, product_breaking_two_mode, pauli.computational_state(2, 0))


def test_build_tree_rejects_bad_structure():
    with pytest.raises(MalformedTree):
        ttree.build_tree(2, 0, {0: {"X": 0}})  # self-loop
    with pytest.raises(MalformedTree):
        ttree.build_tree(3, 0, {0: {"X": 1}})  # vertex 2 disconnected
    with pytest.raises(MalformedTree):
        ttree.build_tree(2, 0, {0: {"X": 1, "Y": 1}})  # two parents


def test_canonical_pair_products_stabilize_all_zero():
    """Consecutive plain path words multiply to a stabilizer of |0...0>."""
    rng = random.Random(55)
    for seed in range(20):
        n = rng.randrange(1, 9)
        t = ttree.random_tree(n, seed)
        paths = ttree.canonical_paths(t)
        zero = pauli.computational_state(n, 0)
        for i in range(n):
            even = ttree._path_string(n, paths[2 * i], phase=0)
            odd = ttree._path_string(n, paths[2 * i + 1], phase=0)
            out = pauli.apply_to_product_state(pauli.multiply(even, odd), zero)
            assert out == zero
