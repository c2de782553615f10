"""Acceptance criteria, one test per criterion, each printing a pass line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report.  Every tolerance is pinned here: algebraic identities are exact,
dense-oracle comparisons use 1e-9, the oracle's own TOL (checked in
criterion 1).
"""

import math
import random
import time

import numpy as np

from conftest import dense_state
from fermap import encoding, equiv, gf2, mapping, oracle, pauli, ttree
from fermap.encoding import AffineEncoding
from fermap.equiv import TwoModeTemplate

TOL = 1e-9


def _report(number: int, elapsed: float, limit: float, detail: str):
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.2f}s)"
    print(f"PASS criterion {number}: {detail} [{elapsed:.2f}s < {limit:g}s]")


def random_product_state(rng, n):
    return pauli.state_from_chars("".join(rng.choice("01+-rl") for _ in range(n)))


def test_criterion_1_jordan_wigner_ground_truth():
    """JW strings match the Z-chain definition byte for byte; |f_m> = |f>."""
    start = time.time()
    assert oracle.TOL == TOL
    for n in range(1, 9):
        m = mapping.named_mapping("jordan_wigner", n)
        for i in range(n):
            chain = " ".join(f"Z{k}" for k in range(i))
            sep = " " if chain else ""
            assert pauli.format_pauli(m.gammas[2 * i]) == f"+1 {chain}{sep}X{i}"
            assert pauli.format_pauli(m.gammas[2 * i + 1]) == f"+1 {chain}{sep}Y{i}"
        assert oracle.verify_linear(m, gf2.identity_matrix(n)) is None
    _report(1, time.time() - start, 1.0, "JW strings byte-exact and |f_m> = |f> for n=1..8")


def test_criterion_2_ufpr_parities():
    """|U&F| odd, |U&P| even, |U&R| odd on 200 random invertible matrices."""
    start = time.time()
    rng = random.Random(2024)
    checked = 0
    for _ in range(200):
        n = rng.randrange(1, 17)
        g = gf2.random_invertible(n, rng.randrange(10**9))
        for i in range(n):
            u, f, p, r = gf2.ufpr_sets(g, i)
            assert len(u & f) % 2 == 1
            assert len(u & p) % 2 == 0
            assert len(u & r) % 2 == 1
            checked += 1
    _report(2, time.time() - start, 5.0, f"UFPR parities hold for 200 matrices ({checked} modes)")


def test_criterion_3_affine_formula_vs_oracle():
    """Affine Majorana pairs satisfy the CARs and map f to e_{G(f xor b)}."""
    start = time.time()
    rng = random.Random(2025)
    # the worked two-mode example, exactly
    enc5 = AffineEncoding(gf2.identity_matrix(2), 0b01)
    m5 = encoding.majoranas_of_affine(enc5)
    assert [pauli.format_pauli(g) for g in m5.gammas] == [
        "+1 X0", "-1 Y0", "-1 Z0 X1", "-1 Z0 Y1"
    ]
    assert oracle.verify_affine(m5, enc5) is None
    for _ in range(50):
        n = rng.randrange(1, 7)
        enc = AffineEncoding(gf2.random_invertible(n, rng.randrange(10**9)), rng.randrange(1 << n))
        m = encoding.majoranas_of_affine(enc)
        assert oracle.check_car(m) is None
        assert oracle.verify_fock_basis(m) is None
        assert oracle.verify_affine(m, enc) is None
    _report(3, time.time() - start, 30.0, "50 random affine encodings verified densely + worked example")


def test_criterion_4_canonical_tree_mappings():
    """m(T) validates, has all-+1 Fock phases, and realizes |G_T f>."""
    start = time.time()
    rng = random.Random(2026)
    for trial in range(100):
        n = rng.randrange(1, 9)
        t = ttree.random_tree(n, rng.randrange(10**9))
        m = ttree.canonical_mapping(t)
        assert mapping.validate(m) is None, trial
        for f in range(1 << n):
            st = mapping.fock_state(m, f)
            assert st.phase == 0 and st.is_computational(), (trial, f)
        assert oracle.verify_linear(m, ttree.tree_matrix(t)) is None, trial
    _report(4, time.time() - start, 120.0, "100 random canonical tree mappings are linear encodings")


def test_criterion_5_sierpinski_equivalence():
    """Complete-tree mappings: uniform weight 3 at n=13, nested matrices."""
    start = time.time()
    m13 = ttree.canonical_mapping(ttree.complete_tree(3))
    weights = [g.weight() for g in m13.gammas]
    assert len(weights) == 26
    assert all(w == 3 for w in weights)
    stats = mapping.weight_stats(m13)
    assert stats.max_weight == 3 and stats.mean_weight == 3 == math.ceil(math.log(27, 3))
    mats = {d: ttree.tree_matrix(ttree.complete_tree(d)) for d in (1, 2, 3, 4)}
    assert tuple(m.n for m in mats.values()) == (1, 4, 13, 40)
    for small, big in ((1, 2), (2, 3), (3, 4)):
        k = mats[small].n
        top_left = tuple(r & ((1 << k) - 1) for r in mats[big].rows[:k])
        assert top_left == mats[small].rows
    _report(5, time.time() - start, 10.0, "13-qubit complete tree has uniform weight 3; G_T nests for n=1,4,13,40")


def test_criterion_6_product_vacuum_pairing():
    """pair_for_vacuum realizes arbitrary product vacua, dense-checked."""
    start = time.time()
    rng = random.Random(2027)
    for trial in range(50):
        n = rng.randrange(1, 9)
        t = ttree.random_tree(n, rng.randrange(10**9))
        v = random_product_state(rng, n)
        m = ttree.pair_for_vacuum(t, v)
        assert mapping.validate(m) is None, trial
        pool = {(s.x, s.z) for s in ttree.canonical_paths(t)}
        used = {(g.x, g.z) for g in m.gammas}
        assert len(used) == 2 * n and used <= pool, trial
        dense = oracle.dense_vacuum(m)
        want = dense_state(v)
        first = np.flatnonzero(np.abs(want) > TOL)[0]
        want = want * (abs(want[first]) / want[first])
        assert np.linalg.norm(dense - want) < TOL, trial
    _report(6, time.time() - start, 60.0, "50 random (tree, product vacuum) pairings verified to 1e-9")


def test_criterion_7_real_basis_braiding():
    """Braided pairings keep every Fock phase in {+1, -1}."""
    start = time.time()
    rng = random.Random(2028)
    for trial in range(50):
        n = rng.randrange(1, 9)
        t = ttree.random_tree(n, rng.randrange(10**9))
        m = ttree.braided_real_pairing(t)
        assert mapping.validate(m) is None, trial
        for f in range(1 << n):
            assert mapping.fock_state(m, f).phase in (0, 2), (trial, f)
    _report(7, time.time() - start, 60.0, "50 braided pairings have strictly real Fock phases")


def test_criterion_8_uniqueness_probes():
    """Any single braid, sign flip, or inverted mode swap leaves the +1 basis."""
    start = time.time()
    rng = random.Random(2029)

    def fails_linear(m):
        """True unless the vacuum is |0...0> and every Fock phase is +1.

        Braids and inverted mode swaps keep the vacuum but break phases;
        a sign flip moves the vacuum itself (flipping the last odd
        operator even yields a proper affine encoding with all-+1 phases,
        so checking phases alone would miss it).
        """
        if mapping.vacuum_state(m) != pauli.computational_state(m.n, 0):
            return True
        for f in range(1 << m.n):
            st = mapping.fock_state(m, f)
            if st.phase != 0 or not st.is_computational():
                return True
        return False

    for trial in range(20):
        n = rng.randrange(2, 7)
        t = ttree.random_tree(n, rng.randrange(10**9))
        m = ttree.canonical_mapping(t)

        mode = rng.randrange(n)
        braided = equiv.apply_symmetry(m, equiv.PairBraid(mode, rng.choice((1, -1))))
        assert fails_linear(braided), (trial, "braid")

        index = rng.randrange(2 * n)
        flipped = equiv.apply_symmetry(m, equiv.SignChange(index))
        assert fails_linear(flipped), (trial, "sign")

        i, j = rng.sample(range(n), 2)
        perm = list(range(n))
        perm[i], perm[j] = perm[j], perm[i]
        swapped = equiv.apply_symmetry(m, equiv.FermionSwap(tuple(perm)))
        assert fails_linear(swapped), (trial, "fermion swap")
    _report(8, time.time() - start, 60.0, "perturbed canonical mappings never linearly encode")


def test_criterion_9_two_mode_census():
    """Exactly three templates; references classify; PB vacua are entangled."""
    start = time.time()
    census = equiv.two_mode_census()
    assert sum(1 for v in census.counts.values() if v > 0) == 3
    assert census.counts == {
        TwoModeTemplate.JW: 144,
        TwoModeTemplate.BK: 288,
        TwoModeTemplate.PRODUCT_BREAKING: 288,
    }

    jw = mapping.jordan_wigner(2)
    # one mapping per labelling step of the diagram definition
    m1 = equiv.apply_symmetry(jw, equiv.QubitSwap((1, 0)))
    m2 = equiv.apply_symmetry(jw, equiv.LocalBasisChange(0, (("Y", 1), ("Z", 1), ("X", 1))))
    m3 = equiv.apply_symmetries(jw, (equiv.PairBraid(0, 1), equiv.SignChange(0)))
    m4 = equiv.apply_symmetry(jw, equiv.SignChange(3))
    m5 = equiv.apply_symmetry(jw, equiv.FermionSwap((1, 0)))
    for k, m in enumerate((m1, m2, m3, m4, m5), start=1):
        assert equiv.classify_two_mode(m) is TwoModeTemplate.JW, k
        assert isinstance(equiv.equivalent(jw, m), equiv.Equivalent), k

    bk = mapping.named_mapping("bravyi_kitaev", 2)
    assert equiv.classify_two_mode(bk) is TwoModeTemplate.BK

    m6 = mapping.FermionQubitMapping(
        2,
        (
            (pauli.parse_pauli("+1 X0", 2), pauli.parse_pauli("-1 Z0 Y1", 2)),
            (pauli.parse_pauli("+1 Z0 X1", 2), pauli.parse_pauli("+1 Y0", 2)),
        ),
    )
    assert equiv.classify_two_mode(m6) is TwoModeTemplate.PRODUCT_BREAKING

    # every product-breaking census member has an entangled vacuum
    import itertools

    strings = [
        pauli.from_letters((a, b)) for a in "IXYZ" for b in "IXYZ" if (a, b) != ("I", "I")
    ]
    pb_total = 0
    for quad in itertools.permutations(strings, 4):
        if not all(
            pauli.anticommutes(quad[p], quad[q]) for p in range(4) for q in range(p + 1, 4)
        ):
            continue
        m = mapping.FermionQubitMapping(2, ((quad[0], quad[1]), (quad[2], quad[3])))
        if equiv.classify_two_mode(m) is TwoModeTemplate.PRODUCT_BREAKING:
            vac = oracle.dense_vacuum(m)
            assert np.linalg.matrix_rank(vac.reshape(2, 2)) > 1
            pb_total += 1
    assert pb_total == 288
    _report(9, time.time() - start, 30.0, "three templates; references classified; 288 PB vacua entangled")


def test_criterion_10_fock_definition_identity():
    """Creation-operator and Majorana-product Fock definitions coincide (Lemma 1).

    With the Jordan-Wigner operators, for every f the three dense products

        (A_0^d)^{f_0} ... (A_{n-1}^d)^{f_{n-1}} |0...0>
        (G_0)^{f_0} (G_2)^{f_1} ... |0...0>
        (-i G_1)^{f_0} (-i G_3)^{f_1} ... |0...0>

    coincide, each operator applied by the oracle's `apply_pauli`.
    """
    start = time.time()
    for n in range(1, 6):
        pairs = mapping.jordan_wigner(n).pairs
        vac = np.zeros(1 << n, dtype=complex)
        vac[0] = 1.0
        for f in range(1 << n):
            by_a = by_even = by_odd = vac
            for i in reversed(range(n)):
                if (f >> i) & 1:
                    a, b = pairs[i]
                    by_a = 0.5 * (oracle.apply_pauli(a, by_a) - 1j * oracle.apply_pauli(b, by_a))
                    by_even = oracle.apply_pauli(a, by_even)
                    by_odd = -1j * oracle.apply_pauli(b, by_odd)
            assert np.linalg.norm(by_a - by_even) <= TOL and np.linalg.norm(by_a - by_odd) <= TOL, (n, f)
    _report(10, time.time() - start, 5.0, "three Fock-basis definitions agree for n=1..5")


def test_criterion_11_bravyi_kitaev_weight_bound():
    """BK max Pauli weight stays within ceil(log2 n) + 1."""
    start = time.time()
    for n in (2, 4, 8, 16):
        stats = mapping.weight_stats(mapping.named_mapping("bravyi_kitaev", n))
        assert stats.max_weight <= math.ceil(math.log2(n)) + 1
    _report(11, time.time() - start, 1.0, "BK weight bound holds for n=2,4,8,16")


def test_criterion_12_dense_oracle_at_n10():
    """The exhaustive dense CAR and Fock-basis checks on JW n = 10 are fast."""
    start = time.time()
    m = mapping.jordan_wigner(10)
    assert oracle.check_car(m) is None
    assert oracle.verify_fock_basis(m) is None
    _report(12, time.time() - start, 1.5, "check_car + verify_fock_basis on JW n=10")


def test_criterion_13_thousand_mode_validate_and_text():
    """validate and format_mapping on a 3000-mode tree and on BK n = 2048 are fast."""
    tree = ttree.canonical_mapping(ttree.random_tree(3000, 1))
    bk = mapping.named_mapping("bravyi_kitaev", 2048)
    start = time.time()
    verdicts = [mapping.validate(tree), mapping.validate(bk)]
    texts = [mapping.format_mapping(tree), mapping.format_mapping(bk)]
    elapsed = time.time() - start
    assert verdicts == [None, None]
    for m, text in zip((tree, bk), texts):
        assert text.startswith(f"n={m.n}\npair 0: ") and text.count("\n") == m.n + 1
    _report(13, elapsed, 1.5, "validate + format_mapping on tree n=3000 and BK n=2048")


def test_criterion_14_thousand_mode_linear_encodings():
    """The affine constructor, its Majoranas, detection and a Fock state on
    G_T of a 3000-mode tree and on BK n = 2048 are fast."""
    matrices = [ttree.tree_matrix(ttree.random_tree(3000, 1)), gf2.named_matrix("bravyi_kitaev", 2048)]
    start = time.time()
    results = []
    for g in matrices:
        m = encoding.majoranas_of_affine(AffineEncoding(g, 0))
        f = random.Random(g.n).getrandbits(g.n)
        results.append((encoding.detect_classical(m), f, mapping.fock_state(m, f)))
    elapsed = time.time() - start
    for g, (det, f, state) in zip(matrices, results):
        assert isinstance(det, AffineEncoding) and (det.g, det.b) == (g, 0)
        assert state.is_computational() and state.bits() == gf2.mat_vec(g, f) and state.phase == 0
    _report(14, elapsed, 1.5, "affine Majoranas, detection and a Fock state on tree n=3000 and BK n=2048")


def test_criterion_15_fock_state_sweeps():
    """fock_state over 64 seeded occupation vectors of a 3000-mode tree and
    over all 4096 of a 12-mode tree is fast: the vacuum is solved once per
    mapping, not once per state."""
    trees = [ttree.random_tree(3000, 1), ttree.random_tree(12, 1)]
    maps = [ttree.canonical_mapping(t) for t in trees]
    rng = random.Random(15)
    vectors = [[rng.getrandbits(3000) for _ in range(64)], range(1 << 12)]
    start = time.time()
    states = [[mapping.fock_state(m, f) for f in fs] for m, fs in zip(maps, vectors)]
    elapsed = time.time() - start
    for t, fs, sts in zip(trees, vectors, states):
        g = ttree.tree_matrix(t)
        for f, state in zip(fs, sts):
            assert state.is_computational() and state.bits() == gf2.mat_vec(g, f) and state.phase == 0
    _report(15, elapsed, 1.5, "fock_state on 64 vectors of tree n=3000 and all 4096 of tree n=12")
