"""Mapping validation, vacua, Fock states and ladder-operator transforms."""

import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_mapping
from fermap import gf2, mapping, pauli, ttree
from fermap.mapping import FermionQubitMapping, NonProduct, Violation
from fermap.pauli import PauliString


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


def _anticommute_by_letters(p, q):
    """Whether p and q carry two different non-identity letters on an odd number of qubits."""
    clashes = [j for j in range(p.n) if "I" != p.letter(j) != q.letter(j) != "I"]
    return len(clashes) % 2 == 1


def _pairwise_violation(m):
    """Reference check: each operator's Hermiticity, then every pair in order."""
    gammas = m.gammas
    for i, g in enumerate(gammas):
        if not g.is_hermitian():
            return Violation("hermiticity", i)
    for i in range(len(gammas)):
        for j in range(i + 1, len(gammas)):
            if not _anticommute_by_letters(gammas[i], gammas[j]):
                return Violation("anticommutation", i, j)
    return None


@st.composite
def perturbed_mappings(draw):
    """Tree and named mappings with n <= 12, then up to three edits."""
    kind = draw(st.sampled_from(("canonical", "jordan_wigner", "parity", "bravyi_kitaev")))
    if kind == "bravyi_kitaev":
        m = mapping.named_mapping(kind, draw(st.sampled_from((1, 2, 4, 8))))
    elif kind == "jordan_wigner":
        n = draw(st.integers(0, 12))
        m = mapping.jordan_wigner(n) if n else FermionQubitMapping(0, ())
    else:
        n = draw(st.integers(1, 12))
        m = (mapping.named_mapping(kind, n) if kind == "parity"
             else ttree.canonical_mapping(ttree.random_tree(n, draw(st.integers(0, 10**6)))))
    gammas = list(m.gammas)
    if not gammas:
        return m
    index = st.integers(0, len(gammas) - 1)
    for edit in draw(st.lists(st.sampled_from(("x", "z", "copy", "swap", "phase")), max_size=3)):
        i = draw(index)
        g = gammas[i]
        if edit in ("x", "z"):
            bit = 1 << draw(st.integers(0, m.n - 1))
            x, z = (g.x ^ bit, g.z) if edit == "x" else (g.x, g.z ^ bit)
            gammas[i] = PauliString(m.n, x, z, g.phase)
        elif edit == "copy":
            gammas[i] = gammas[draw(index)]
        elif edit == "swap":
            j = draw(index)
            gammas[i], gammas[j] = gammas[j], gammas[i]
        else:
            gammas[i] = g.times_i(draw(st.sampled_from((1, 3))))
    return make_mapping(gammas)


@settings(max_examples=400, deadline=None)
@given(perturbed_mappings())
def test_validate_matches_pairwise_reference(m):
    assert mapping.validate(m) == _pairwise_violation(m)


@pytest.mark.parametrize("m", [
    ttree.canonical_mapping(ttree.random_tree(3000, 1)),
    mapping.jordan_wigner(200),
    mapping.named_mapping("bravyi_kitaev", 256),
], ids=["tree3000", "jw200", "bk256"])
def test_validate_first_violation_at_large_n(m):
    gammas = list(m.gammas)
    k = len(gammas) - 1
    for i in (0, 5, k - 1):
        copied = gammas[:k] + [gammas[i]]
        assert mapping.validate(make_mapping(copied)) == Violation("anticommutation", i, k)
    swapped = gammas[:]
    swapped[3], swapped[k] = swapped[k], swapped[3]
    assert mapping.validate(make_mapping(swapped)) is None
    scaled = gammas[:7] + [gammas[7].times_i(1)] + gammas[8:]
    assert mapping.validate(make_mapping(scaled)) == Violation("hermiticity", 7)


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
    assert vac == NonProduct(qubit=0, letters=("Y", "X"))


@pytest.mark.parametrize("n", [2, 11])
def test_vacuum_inconsistent_signs_raise(n):
    """Pairs (X0, Y0), (Y0, X0) demand both +Z0 and -Z0 of the vacuum."""
    x0, y0 = pauli.parse_pauli("+1 X0", n), pauli.parse_pauli("+1 Y0", n)
    m = FermionQubitMapping(n, ((x0, y0), (y0, x0)) + mapping.jordan_wigner(n).pairs[2:])
    assert [str(s) for s in mapping.vacuum_stabilizers(m)[:2]] == ["+1 Z0", "-1 Z0"]
    with pytest.raises(ValueError, match="inconsistent signs"):
        mapping.vacuum_state(m)


def _count_solves(monkeypatch) -> list:
    """Record every vacuum solve; each one starts by forming the stabilizers."""
    solves = []
    stabilizers = mapping.vacuum_stabilizers

    def counted(m):
        solves.append(m)
        return stabilizers(m)

    monkeypatch.setattr(mapping, "vacuum_stabilizers", counted)
    return solves


def test_vacuum_is_solved_once_per_mapping_object(monkeypatch):
    from fermap import encoding

    solves = _count_solves(monkeypatch)
    m = ttree.canonical_mapping(ttree.random_tree(6, 3))
    states = [mapping.fock_state(m, f) for f in range(1 << m.n)]
    assert mapping.vacuum_state(m) == states[0] == pauli.computational_state(6, 0)
    assert isinstance(encoding.detect_classical(m), encoding.AffineEncoding)
    assert len(solves) == 1
    fresh = ttree.canonical_mapping(ttree.random_tree(6, 3))
    assert fresh == m and fresh is not m
    assert mapping.fock_state(fresh, 0b101) == states[0b101]
    assert len(solves) == 2


def test_vacuum_memo_keeps_equality_hash_repr_and_pickle():
    m = ttree.braided_real_pairing(ttree.random_tree(5, 2))
    vac = mapping.vacuum_state(m)
    fresh = ttree.braided_real_pairing(ttree.random_tree(5, 2))
    assert m == fresh and hash(m) == hash(fresh) and repr(m) == repr(fresh)
    copy = pickle.loads(pickle.dumps(m))
    assert copy == m == fresh and mapping.vacuum_state(copy) == vac


def test_vacuum_error_is_raised_again(monkeypatch):
    solves = _count_solves(monkeypatch)
    x0, y0 = pauli.parse_pauli("+1 X0", 2), pauli.parse_pauli("+1 Y0", 2)
    m = FermionQubitMapping(2, ((x0, y0), (y0, x0)))
    for _ in range(2):
        with pytest.raises(ValueError, match="inconsistent signs"):
            mapping.vacuum_state(m)
    assert len(solves) == 2


def test_solve_sign_system_matches_exhaustive_search():
    """None exactly when no assignment satisfies every row, else a solution."""
    rng = random.Random(27)
    inconsistent = 0
    for _ in range(400):
        n = rng.randrange(1, 9)
        rows = [(rng.randrange(1, 1 << n), rng.randrange(2)) for _ in range(rng.randrange(1, n + 3))]
        if rng.random() < 0.5:  # make the right-hand sides consistent with a hidden solution
            hidden = rng.randrange(1 << n)
            rows = [(mask, (mask & hidden).bit_count() & 1) for mask, _ in rows]

        def satisfies(v):
            return all((mask & v).bit_count() & 1 == rhs for mask, rhs in rows)

        got = gf2.solve(rows)
        if got is None:
            inconsistent += 1
            assert not any(satisfies(v) for v in range(1 << n))
        else:
            assert satisfies(got)
    assert inconsistent > 50


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


_I_POWERS = tuple((Fraction(re), Fraction(im)) for re, im in ((1, 0), (0, 1), (-1, 0), (0, -1)))


def _reference_from_terms(n, terms):
    """PauliSum.from_terms folding i^k by a complex product with (Fraction) i^k."""
    acc = {}
    for coeff, op in terms:
        folded = mapping._cmul(coeff, _I_POWERS[op.display_power()])
        old = acc.get((op.x, op.z), (Fraction(0), Fraction(0)))
        acc[(op.x, op.z)] = (old[0] + folded[0], old[1] + folded[1])
    out = [(c, PauliString(n, x, z, (x & z).bit_count())) for (x, z), c in sorted(acc.items()) if c != (0, 0)]
    return mapping.PauliSum(n, tuple(out))


def test_pauli_sum_fold_matches_complex_product_reference(monkeypatch):
    t = ttree.random_tree(4, 5)
    cases = [
        mapping.jordan_wigner(3),
        mapping.named_mapping("bravyi_kitaev", 4),
        mapping.named_mapping("parity", 3),
        ttree.canonical_mapping(t),
        ttree.braided_real_pairing(t),
    ]

    def transforms():
        out = []
        for m in cases:
            letters = [(i, dagger) for i in range(m.n) for dagger in (False, True)]
            for k in range(3):
                out += [repr(mapping.transform_ladder_term(m, w)) for w in itertools.product(letters, repeat=k)]
        return out

    got = transforms()
    monkeypatch.setattr(mapping.PauliSum, "from_terms", staticmethod(_reference_from_terms))
    assert got == transforms()


def test_pauli_sum_int_coefficients_become_fractions():
    ops = [pauli.parse_pauli(text, 2) for text in ("+1 X0", "+i Z1", "-1 Y0 Y1", "-i X0", "+1 Z1")]
    coeffs = [(1, 0), (0, -1), (2, 3), (0, -1), (Fraction(1, 2), -1)]
    terms = list(zip(coeffs, ops))
    got = mapping.PauliSum.from_terms(2, terms)
    assert got == _reference_from_terms(2, terms) and len(got.terms) == 2
    assert all(type(part) is Fraction for c, _ in got.terms for part in c)


def test_number_operator_jw():
    m = mapping.jordan_wigner(3)
    num = mapping.transform_ladder_term(m, [(1, True), (1, False)])
    half = (Fraction(1, 2), Fraction(0))
    minus_half = (Fraction(-1, 2), Fraction(0))
    assert num.terms == (
        (half, pauli.identity(3)),
        (minus_half, pauli.parse_pauli("+1 Z1", 3)),
    )


def test_ladder_term_matches_number_operator():
    rng = random.Random(24)
    for seed in range(8):
        t = ttree.random_tree(rng.randrange(1, 7), seed)
        m = ttree.canonical_mapping(t)
        for i in range(m.n):
            number = mapping.creation(m, i) * mapping.annihilation(m, i)
            assert mapping.transform_ladder_term(m, [(i, True), (i, False)]) == number


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


def test_mapping_file_round_trip_at_n1000():
    m = ttree.canonical_mapping(ttree.random_tree(1000, 1))
    text = mapping.format_mapping(m)
    assert text.startswith("n=1000\npair 0: ") and text.count("\n") == 1001
    assert mapping.parse_mapping(text) == m


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


@pytest.mark.parametrize("header", ["n=+1", "n=01", "n=\u0661", "n= 1"])
def test_parse_mapping_rejects_non_canonical_header(header):
    with pytest.raises(ValueError, match="header"):
        mapping.parse_mapping(f"{header}\npair 0: +1 X0 ; +1 Y0\n")


def test_classical_fock_states_are_injective():
    """Distinct occupation vectors hit distinct basis labels when classical."""
    rng = random.Random(26)
    for seed in range(8):
        n = rng.randrange(1, 7)
        t = ttree.random_tree(n, seed)
        m = ttree.canonical_mapping(t)
        labels = {mapping.fock_state(m, f).bits() for f in range(1 << n)}
        assert len(labels) == 1 << n
