"""Dense oracle self-checks and oracle-vs-symbolic agreement."""

import ast
import inspect
import math
import random
import tracemalloc

import numpy as np
import pytest

from conftest import dense, dense_state, make_mapping
from fermap import encoding, gf2, mapping, oracle, pauli, ttree
from fermap.encoding import AffineEncoding
from fermap.mapping import FermionQubitMapping

P = pauli.parse_pauli


def _two_mode(a0, b0, a1, b1):
    return FermionQubitMapping(2, ((P(a0, 2), P(b0, 2)), (P(a1, 2), P(b1, 2))))


def _basis(n, bits):
    """|bits> with qubit j in |1> iff bit j of ``bits`` is set."""
    return np.eye(1 << n, dtype=complex)[oracle.bits_to_index(n, bits)]


def test_apply_pauli_x_flip():
    psi = _basis(2, 0)
    out = oracle.apply_pauli(pauli.parse_pauli("+1 X0", 2), psi)
    assert np.allclose(out, _basis(2, 0b01))


def test_apply_pauli_y_phase():
    psi = _basis(1, 0)
    out = oracle.apply_pauli(P("+1 Y0", 1), psi)
    assert np.allclose(out, 1j * _basis(1, 1))


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
        assert np.allclose(oracle.apply_pauli(p, psi), dense(p) @ psi)


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
    assert report == oracle.CarReport("anticommutator", 2, 3, 2.0)
    # no Z string: gamma_0 = X0 commutes with gamma_2 = X1
    report = oracle.check_car(_two_mode("+1 X0", "+1 Y0", "+1 X1", "+1 Y1"))
    assert report == oracle.CarReport("anticommutator", 0, 2, 2.0)


def test_check_car_flags_non_hermitian():
    """i X0 is anti-Hermitian; it is reported as a failed square.

    A Pauli string is a signed permutation with unit coefficients, so
    G^2 = 1 already implies G = G^dagger: the square is the first check that
    a non-Hermitian Pauli string fails.
    """
    m = mapping.jordan_wigner(2)
    pairs = ((m.pairs[0][0].times_i(1), m.pairs[0][1]), m.pairs[1])
    report = oracle.check_car(FermionQubitMapping(2, pairs))
    assert report == oracle.CarReport("square", 0, None, 2.0)
    assert str(report) == "square violated at operator 0 (deviation 2)"


def test_pauli_action_must_be_a_signed_permutation(monkeypatch):
    m = mapping.jordan_wigner(2)
    # magnitudes of the tag image are no longer 1..2^n
    monkeypatch.setattr(oracle, "apply_pauli", lambda p, psi: 0.5 * psi)
    with pytest.raises(AssertionError, match="pauli action is not a signed permutation"):
        oracle.check_car(m)
    # exact on the real tag vector, wrong on the complex probe
    monkeypatch.setattr(oracle, "apply_pauli", lambda p, psi: psi.real.astype(complex))
    with pytest.raises(AssertionError, match="pauli action is not a signed permutation"):
        oracle.check_car(m)


def test_dense_vacuum_inconsistent_stabilizers():
    m = _two_mode("+1 X0", "+1 Y0", "+1 X0", "-1 Y0")  # S_0 = Z0, S_1 = -Z0
    message = "^no joint \\+1-eigenstate found: inconsistent stabilizers$"
    for check in (oracle.dense_vacuum, oracle.verify_fock_basis):
        with pytest.raises(ValueError, match=message):
            check(m)


def test_dense_vacuum_jw():
    assert np.allclose(oracle.dense_vacuum(mapping.jordan_wigner(3)), _basis(3, 0))


def test_dense_vacuum_affine_example():
    m = encoding.majoranas_of_affine(encoding.AffineEncoding(gf2.identity_matrix(2), 0b01))
    assert np.allclose(oracle.dense_vacuum(m), _basis(2, 0b01))


def test_dense_vacuum_product_breaking_is_entangled(product_breaking_two_mode):
    vac = oracle.dense_vacuum(product_breaking_two_mode)
    assert np.linalg.matrix_rank(vac.reshape(2, 2)) > 1


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


def test_verify_fock_basis_first_failure():
    # gamma_2 = X0 X1 flips the mode-0 stabilizer Z0, so |f=10> = |11> has S_0 = -1
    m = _two_mode("+1 X0", "+1 Y0", "+1 X0 X1", "+1 X0 Y1")
    assert oracle.verify_fock_basis(m) == oracle.FockReport("stabilizer 0 eigenvalue is not +1", 2, 2.0)
    # both modes' even Majoranas are X0: f=10 and f=01 give the same state,
    # which fails the eigenvalue that tells them apart
    m = _two_mode("+1 X0", "+1 Y0", "+1 X0", "+1 Y0")
    assert oracle.verify_fock_basis(m) == oracle.FockReport("stabilizer 1 eigenvalue is not +1", 1, 2.0)


def test_verify_fock_basis_is_exhaustive_only():
    with pytest.raises(ValueError, match="n <= 10") as err:
        oracle.verify_fock_basis(mapping.jordan_wigner(11))
    assert "sample" not in str(err.value)


def test_verify_linear_jw():
    for n in (1, 3, 5):
        assert oracle.verify_linear(mapping.jordan_wigner(n), gf2.identity_matrix(n)) is None


def test_verify_linear_flags_wrong_matrix():
    m = mapping.named_mapping("parity", 3)
    report = oracle.verify_linear(m, gf2.identity_matrix(3))
    assert report == oracle.FockReport("Fock state differs from |Gf>", 1, math.sqrt(2))
    m = mapping.named_mapping("parity", 11)
    report = oracle.verify_linear(m, gf2.identity_matrix(11), sample=8)
    assert report == oracle.FockReport("Fock state differs from |Gf>", 165, math.sqrt(2))


def test_verify_affine_flags_wrong_offset():
    m = encoding.majoranas_of_affine(AffineEncoding(gf2.identity_matrix(2), 0b01))
    report = oracle.verify_affine(m, AffineEncoding(gf2.identity_matrix(2), 0b10))
    assert report == oracle.FockReport("Fock state differs from |G(f xor b)>", 0, math.sqrt(2))


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


def test_verify_linear_sampled_streams_states():
    """Each sampled 2^13-amplitude state is checked as it is built, not kept."""
    t = ttree.complete_tree(3)
    m, g = ttree.canonical_mapping(t), ttree.tree_matrix(t)
    tracemalloc.start()
    try:
        assert oracle.verify_linear(m, g, sample=4096) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.0f} MB"


def test_verify_affine_random():
    rng = random.Random(65)
    for _ in range(10):
        n = rng.randrange(1, 6)
        g = gf2.random_invertible(n, rng.randrange(10**6))
        enc = encoding.AffineEncoding(g, rng.randrange(1 << n))
        m = encoding.majoranas_of_affine(enc)
        assert oracle.verify_affine(m, enc) is None


def test_oracle_agrees_with_symbolic_fock_states():
    """Dense and symbolic Fock sweeps agree amplitude by amplitude."""
    rng = random.Random(66)
    for seed in range(8):
        n = rng.randrange(1, 7)
        t = ttree.random_tree(n, seed)
        m = ttree.braided_real_pairing(t)
        dense = dict(oracle.dense_fock_states(m))
        for f in range(1 << n):
            sym = mapping.fock_state(m, f)
            assert np.linalg.norm(dense[f] - dense_state(sym)) < 1e-9
        # any order, repeats included, streams the same states
        subset = [rng.randrange(1 << n) for _ in range(12)]
        for f, psi in oracle.dense_fock_states(m, subset):
            assert np.array_equal(psi, dense[f])


def test_dense_fock_states_with_full_support_vacuum():
    """An all-X/Y vacuum gives states of full support, built as apply_pauli would."""
    rng = random.Random(67)
    for seed in range(6):
        n = rng.randrange(1, 7)
        v = pauli.state_from_chars("".join(rng.choice("+-rl") for _ in range(n)))
        m = ttree.pair_for_vacuum(ttree.random_tree(n, seed), v)
        vac = oracle.dense_vacuum(m)
        assert np.count_nonzero(vac) == 1 << n
        for f, psi in oracle.dense_fock_states(m):
            want = vac
            for mode in reversed(range(n)):
                if (f >> mode) & 1:
                    want = oracle.apply_pauli(m.pairs[mode][0], want)
            assert np.array_equal(psi, want), f


# -- reference sweep: one dense state per f, one dense scatter per operator ---------

# The reference measures each deviation on normalized dense states and, as the
# oracle once did, passes any deviation up to this tolerance.
REF_TOL = 1e-9


def _reference_stabilizers(m):
    """Each S_i = -i G_2i G_2i+1 read directly from two apply_pauli passes, as rows."""
    actions = [
        oracle._action(m.n, lambda psi, a=a, b=b: -1j * oracle.apply_pauli(a, oracle.apply_pauli(b, psi)))
        for a, b in m.pairs
    ]
    return np.array([p for p, _ in actions]), np.array([c for _, c in actions])


def _reference_fock_states(m, vac, subset):
    evens = [oracle._pauli_action(a) for a, _ in m.pairs]
    for f in range(1 << m.n) if subset is None else subset:
        psi = vac
        for mode in reversed(range(m.n)):
            if (f >> mode) & 1:
                psi = oracle._apply(evens[mode], psi)
        yield f, psi


def _reference_verify_fock_basis(m):
    if m.n > 10:
        raise ValueError("dense Fock-basis check limited to n <= 10")
    stabilizers = _reference_stabilizers(m)
    vac = oracle._vacuum(m.n, stabilizers)
    for f, psi in _reference_fock_states(m, vac / np.linalg.norm(vac), None):
        for i, s in enumerate(zip(*stabilizers)):
            want = (-1.0) ** ((f >> i) & 1)
            dev = float(np.linalg.norm(oracle._apply(s, psi) - want * psi))
            if dev > REF_TOL:
                return oracle.FockReport(f"stabilizer {i} eigenvalue is not {want:+.0f}", f, dev)
    return None


def _reference_verify_encoded(m, rows, b, subset, reason):
    for f, psi in _reference_fock_states(m, oracle.dense_vacuum(m), subset):
        v = f ^ b
        bits = sum(((row & v).bit_count() & 1) << i for i, row in enumerate(rows))
        expected = np.zeros_like(psi)
        expected[oracle.bits_to_index(m.n, bits)] = 1.0
        dev = float(np.linalg.norm(psi - expected))
        if dev > REF_TOL:
            return oracle.FockReport(reason, f, dev)
    return None


def _perturbed(m, rng):
    """m with one operator changed: a flipped x or z bit, a sign, +-i, a copy or a random one."""
    n, gammas = m.n, list(m.gammas)
    k = rng.randrange(2 * n)
    p = gammas[k]
    p = rng.choice((
        lambda: pauli.PauliString(n, p.x ^ (1 << rng.randrange(n)), p.z, p.phase),
        lambda: pauli.PauliString(n, p.x, p.z ^ (1 << rng.randrange(n)), p.phase),
        lambda: p.negated(),
        lambda: p.times_i(rng.choice((1, 3))),
        lambda: gammas[rng.randrange(2 * n)],
        lambda: pauli.PauliString(n, rng.randrange(1 << n), rng.randrange(1 << n), rng.randrange(4)),
    ))()
    gammas[k] = p
    return make_mapping(gammas)


def _outcome(check, *args, **kwargs):
    try:
        return repr(check(*args, **kwargs))
    except ValueError as err:
        return f"raises {err!r}"


def _zoo():
    """(case, g, enc, mm): 60 seeded mappings of six kinds, each valid and perturbed.

    g is the mapping's flip matrix and enc an affine encoding to test it
    against (its own for the affine kind, else one with g and a random
    offset), or None when g is singular.
    """
    rng = random.Random(68)
    kinds = ("jw", "parity", "affine", "canonical", "braided", "pfv")
    for case in range(60):
        n = rng.randrange(1, 7)
        kind = kinds[case % len(kinds)]
        t = ttree.random_tree(n, rng.randrange(10**6))
        enc = None
        if kind == "jw":
            m = mapping.jordan_wigner(n)
        elif kind == "parity":
            m = mapping.named_mapping("parity", n)
        elif kind == "affine":
            enc = AffineEncoding(gf2.random_invertible(n, rng.randrange(10**6)), rng.randrange(1 << n))
            m = encoding.majoranas_of_affine(enc)
        elif kind == "canonical":
            m = ttree.canonical_mapping(t)
        elif kind == "braided":
            m = ttree.braided_real_pairing(t)
        else:
            m = ttree.pair_for_vacuum(
                t, pauli.state_from_chars("".join(rng.choice("01+-rl") for _ in range(n)))
            )
        g = encoding.flip_matrix(m)
        if enc is None:
            try:
                enc = AffineEncoding(g, rng.randrange(1 << n))
            except gf2.Singular:
                pass
        for mm in (m, _perturbed(m, rng)):
            yield case, g, enc, mm


def test_sweep_reports_match_dense_reference():
    """Support-and-amplitude sweeps report exactly what the dense sweep reports."""
    linear = "Fock state differs from |Gf>"
    affine = "Fock state differs from |G(f xor b)>"
    for case, g, enc, mm in _zoo():
        pairs = [
            (_outcome(oracle.verify_fock_basis, mm), _outcome(_reference_verify_fock_basis, mm)),
            (_outcome(oracle.verify_linear, mm, g),
             _outcome(_reference_verify_encoded, mm, g.rows, 0, None, linear)),
            (_outcome(oracle.verify_linear, mm, g, sample=5),
             _outcome(_reference_verify_encoded, mm, g.rows, 0, oracle._subset(mm.n, 5), linear)),
        ]
        if enc is not None:
            pairs.append((_outcome(oracle.verify_affine, mm, enc),
                          _outcome(_reference_verify_encoded, mm, enc.g.rows, enc.b, None, affine)))
        for got, want in pairs:
            assert got == want, (case, str(mm))


def _unnormalized_sweep(m):
    """(f, idx, amp) for every f, as the oracle streams them from its unit-amplitude vacuum."""
    evens, stabilizers = oracle._pair_actions(m)
    return oracle._fock_states(evens, oracle._vacuum(m.n, stabilizers), None)


def test_passing_eigenvalues_certify_an_orthonormal_basis():
    """Whenever verify_fock_basis passes, the unnormalized states' Gram matrix is exactly |support| I."""
    passed = 0
    for case, _, _, mm in _zoo():
        if _outcome(oracle.verify_fock_basis, mm) != "None":
            continue
        passed += 1
        dim = 1 << mm.n
        states = np.zeros((dim, dim), dtype=complex)
        for f, idx, amp in _unnormalized_sweep(mm):
            states[f, idx] = amp
        gram = states.conj() @ states.T
        assert np.array_equal(gram, len(idx) * np.eye(dim)), (case, str(mm))
    assert passed >= 60  # every valid mapping, and any perturbation that stays valid


def test_sweep_amplitudes_of_valid_mappings_are_units():
    """The exact checks rest on this: every streamed amplitude of a valid mapping is +-1 or +-i."""
    valid = 0
    for case, _, _, mm in _zoo():
        if mapping.validate(mm) is not None:
            continue
        valid += 1
        for f, _, amp in _unnormalized_sweep(mm):
            assert np.isin(amp, (1, -1, 1j, -1j)).all(), (case, f, str(mm))
    assert valid >= 60


def test_composed_stabilizers_match_direct_reading():
    """-i G_2i G_2i+1 composed by indexing equals the operator read from apply_pauli."""
    for case, _, _, mm in _zoo():
        perms, coeffs = oracle._pair_actions(mm)[1]
        ref_perms, ref_coeffs = _reference_stabilizers(mm)
        # array_equal ignores the sign of zero components
        assert np.array_equal(perms, ref_perms) and np.array_equal(coeffs, ref_coeffs), case


def test_verify_fock_basis_holds_no_states():
    """A full-support n = 10 basis is checked state by state, not kept for a Gram matrix."""
    m = ttree.pair_for_vacuum(ttree.random_tree(10, 3), pauli.state_from_chars("+" * 10))
    tracemalloc.start()
    try:
        assert oracle.verify_fock_basis(m) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_bits_to_index_convention():
    # qubit 0 is the most significant amplitude bit
    assert oracle.bits_to_index(3, 0b001) == 4
    assert oracle.bits_to_index(3, 0b100) == 1
    psi = dense_state(pauli.computational_state(3, 0b001))
    assert np.allclose(psi, _basis(3, 0b001))


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
    """The oracle imports no symbolic fast path, binds no TOL, and compares against no tolerance."""
    assert not _imported_parts(oracle) & {"gf2", "encoding"}
    for node in ast.walk(ast.parse(inspect.getsource(oracle))):
        assert not (isinstance(node, ast.Name) and node.id == "TOL" and isinstance(node.ctx, ast.Store))
        if isinstance(node, ast.Compare):
            for operand in (node.left, *node.comparators):
                is_float = isinstance(operand, ast.Constant) and isinstance(operand.value, float)
                assert not is_float or operand.value in (0.0, 1.0), ast.unparse(node)


def test_symbolic_modules_do_not_import_oracle():
    from fermap import equiv

    for module in (pauli, gf2, mapping, encoding, ttree, equiv):
        assert "oracle" not in _imported_parts(module), module.__name__
