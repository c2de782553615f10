"""Dense oracle self-checks and oracle-vs-symbolic agreement."""

import ast
import inspect
import random

import numpy as np
import pytest

from fermap import encoding, gf2, mapping, oracle, pauli, ttree
from fermap.mapping import FermionQubitMapping


def test_apply_pauli_x_flip():
    psi = oracle.basis_state(2, 0)
    out = oracle.apply_pauli(pauli.parse_pauli("+1 X0", 2), psi)
    assert np.allclose(out, oracle.basis_state(2, 0b01))


def test_apply_pauli_y_phase():
    psi = oracle.basis_state(1, 0)
    out = oracle.apply_pauli(pauli.single(1, "Y", 0), psi)
    assert np.allclose(out, 1j * oracle.basis_state(1, 1))


def test_apply_pauli_norm_preserved():
    rng = random.Random(60)
    np_rng = np.random.default_rng(60)
    for _ in range(30):
        n = rng.randrange(1, 7)
        p = pauli.PauliString(n, rng.randrange(1 << n), rng.randrange(1 << n), rng.randrange(4))
        psi = np_rng.normal(size=1 << n) + 1j * np_rng.normal(size=1 << n)
        psi /= np.linalg.norm(psi)
        out = oracle.apply_pauli(p, psi)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_apply_pauli_matches_dense_matrix():
    rng = random.Random(61)
    np_rng = np.random.default_rng(61)
    for _ in range(50):
        n = rng.randrange(1, 5)
        p = pauli.PauliString(n, rng.randrange(1 << n), rng.randrange(1 << n), rng.randrange(4))
        psi = np_rng.normal(size=1 << n) + 1j * np_rng.normal(size=1 << n)
        assert np.allclose(oracle.apply_pauli(p, psi), oracle.dense_matrix(p) @ psi)


def test_check_car_accepts_valid_mappings():
    assert oracle.check_car(mapping.jordan_wigner(6)) is None
    assert oracle.check_car(mapping.named_mapping("bravyi_kitaev", 8)) is None
    rng = random.Random(62)
    for seed in range(10):
        t = ttree.random_tree(rng.randrange(1, 9), seed)
        assert oracle.check_car(ttree.canonical_mapping(t)) is None


def test_check_car_flags_corruption():
    """Flipping the sign on half of one operator's support breaks the CARs."""
    m = mapping.jordan_wigner(3)
    bad_pairs = list(m.pairs)
    a, b = bad_pairs[1]
    # replace gamma_3 = Z0 Y1 by Z0 X1 (drops anticommutation with gamma_2)
    bad_pairs[1] = (a, pauli.parse_pauli("+1 Z0 X1", 3))
    report = oracle.check_car(FermionQubitMapping(3, tuple(bad_pairs)))
    assert report is not None
    assert report.kind in ("anticommutator", "square")


def test_check_car_flags_non_hermitian():
    m = mapping.jordan_wigner(2)
    pairs = ((m.pairs[0][0].times_i(1), m.pairs[0][1]), m.pairs[1])
    report = oracle.check_car(FermionQubitMapping(2, pairs))
    assert report is not None


def test_dense_vacuum_jw():
    assert np.allclose(oracle.dense_vacuum(mapping.jordan_wigner(3)), oracle.basis_state(3, 0))


def test_dense_vacuum_affine_example():
    m = encoding.majoranas_of_affine(encoding.AffineEncoding(gf2.identity_matrix(2), 0b01))
    assert np.allclose(oracle.dense_vacuum(m), oracle.basis_state(2, 0b01))


def test_dense_vacuum_product_breaking_is_entangled(product_breaking_two_mode):
    vac = oracle.dense_vacuum(product_breaking_two_mode)
    assert oracle.schmidt_rank(vac, 2, 1) > 1
    assert not oracle.is_product_state(vac, 2)


def test_dense_vacuum_order_independent():
    """Permuting the stabilizer pairs changes the vacuum by at most a phase."""
    rng = random.Random(63)
    for seed in range(5):
        n = rng.randrange(2, 6)
        t = ttree.random_tree(n, seed)
        m = ttree.pair_for_vacuum(
            t, pauli.state_from_chars("".join(rng.choice("01+-rl") for _ in range(n)))
        )
        vac = oracle.dense_vacuum(m)
        perm = list(range(n))
        rng.shuffle(perm)
        m2 = FermionQubitMapping(n, tuple(m.pairs[i] for i in perm))
        vac2 = oracle.dense_vacuum(m2)
        assert abs(abs(np.vdot(vac, vac2)) - 1.0) < 1e-9
        # the phase convention makes them exactly equal
        assert np.linalg.norm(vac - vac2) < 1e-9


def test_verify_fock_basis_accepts_and_reports():
    assert oracle.verify_fock_basis(mapping.jordan_wigner(4)) is None
    assert oracle.verify_fock_basis(mapping.named_mapping("parity", 4)) is None


def test_verify_linear_jw():
    for n in (1, 3, 5):
        assert oracle.verify_linear(mapping.jordan_wigner(n), gf2.identity_matrix(n)) is None


def test_verify_linear_flags_wrong_matrix():
    m = mapping.named_mapping("parity", 3)
    report = oracle.verify_linear(m, gf2.identity_matrix(3))
    assert report is not None


def test_verify_linear_canonical_trees():
    rng = random.Random(64)
    for seed in range(15):
        n = rng.randrange(1, 9)
        t = ttree.random_tree(n, seed)
        assert oracle.verify_linear(ttree.canonical_mapping(t), ttree.tree_matrix(t)) is None


def test_verify_linear_sampled_mode():
    t = ttree.complete_tree(3)  # 13 qubits: exhaustive sweep is refused
    m = ttree.canonical_mapping(t)
    with pytest.raises(ValueError):
        oracle.verify_linear(m, ttree.tree_matrix(t))
    assert oracle.verify_linear(m, ttree.tree_matrix(t), sample=64) is None


def test_verify_affine_random():
    rng = random.Random(65)
    for _ in range(10):
        n = rng.randrange(1, 6)
        g = gf2.random_invertible(n, rng.randrange(10**6))
        enc = encoding.AffineEncoding(g, rng.randrange(1 << n))
        m = encoding.majoranas_of_affine(enc)
        assert oracle.verify_affine(m, enc) is None


def test_verify_lemma1():
    for n in range(1, 6):
        assert oracle.verify_lemma1(n)


def test_oracle_agrees_with_symbolic_fock_states():
    """Dense and symbolic Fock sweeps agree amplitude by amplitude."""
    rng = random.Random(66)
    for seed in range(8):
        n = rng.randrange(1, 7)
        t = ttree.random_tree(n, seed)
        m = ttree.braided_real_pairing(t)
        dense = oracle.dense_fock_states(m)
        for f in range(1 << n):
            sym = mapping.fock_state(m, f)
            assert np.linalg.norm(dense[f] - oracle.dense_product_state(sym)) < 1e-9


def test_bits_to_index_convention():
    # qubit 0 is the most significant amplitude bit
    assert oracle.bits_to_index(3, 0b001) == 4
    assert oracle.bits_to_index(3, 0b100) == 1
    psi = oracle.dense_product_state(pauli.computational_state(3, 0b001))
    assert np.allclose(psi, oracle.basis_state(3, 0b001))


def _imported_parts(module):
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    return {part for name in imported for part in name.split(".")}


def test_oracle_shares_no_code_with_gf2_or_encoding():
    assert not _imported_parts(oracle) & {"gf2", "encoding"}


def test_symbolic_modules_do_not_import_oracle():
    from fermap import equiv

    for module in (pauli, gf2, mapping, encoding, ttree, equiv):
        assert "oracle" not in _imported_parts(module), module.__name__
