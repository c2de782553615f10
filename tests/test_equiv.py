"""Labelling symmetries, fingerprints, equivalence search, two-mode census."""

import random

import pytest

from fermap import equiv, gf2, mapping, pauli, ttree
from fermap.equiv import (
    Equivalent,
    FermionSwap,
    Inequivalent,
    LocalBasisChange,
    PairBraid,
    QubitSwap,
    SignChange,
    TwoModeTemplate,
    Unknown,
)


def random_op(rng, n):
    kind = rng.randrange(5)
    if kind == 0:
        perm = list(range(n))
        rng.shuffle(perm)
        return QubitSwap(tuple(perm))
    if kind == 1:
        rho = dict(zip("XYZ", rng.sample(["X", "Y", "Z"], 3)))
        if equiv._perm_parity(rho) == 0:
            image = tuple((rho[ell], 1) for ell in "XYZ")
        else:
            fixed = next(ell for ell in "XYZ" if rho[ell] == ell)
            image = tuple((rho[ell], -1 if ell == fixed else 1) for ell in "XYZ")
        return LocalBasisChange(rng.randrange(n), image)
    if kind == 2:
        return PairBraid(rng.randrange(n), rng.choice((1, -1)))
    if kind == 3:
        return SignChange(rng.randrange(2 * n))
    perm = list(range(n))
    rng.shuffle(perm)
    return FermionSwap(tuple(perm))


def test_local_basis_change_validation():
    # even permutation with all-positive signs is a Clifford image
    LocalBasisChange(0, (("Y", 1), ("Z", 1), ("X", 1)))
    # transposition needs an odd number of minus signs
    LocalBasisChange(0, (("Y", 1), ("X", 1), ("Z", -1)))
    with pytest.raises(ValueError):
        LocalBasisChange(0, (("Y", 1), ("X", 1), ("Z", 1)))
    with pytest.raises(ValueError):
        LocalBasisChange(0, (("Y", 1), ("Z", -1), ("X", 1)))
    with pytest.raises(ValueError):
        LocalBasisChange(0, (("X", 1), ("X", 1), ("Z", 1)))


def test_exactly_24_local_basis_changes():
    import itertools

    count = 0
    for letters in itertools.permutations("XYZ"):
        for signs in itertools.product((1, -1), repeat=3):
            try:
                LocalBasisChange(0, tuple(zip(letters, signs)))
                count += 1
            except ValueError:
                pass
    assert count == 24


def test_braid_then_sign_is_pair_reorder():
    m = mapping.jordan_wigner(2)
    out = equiv.apply_symmetry(m, PairBraid(0, 1))
    out = equiv.apply_symmetry(out, SignChange(0))
    a, b = m.pairs[0]
    assert out.pairs[0] == (b, a)
    assert out.pairs[1] == m.pairs[1]


def test_identity_qubit_swap_is_noop():
    m = mapping.named_mapping("bravyi_kitaev", 4)
    assert equiv.apply_symmetry(m, QubitSwap((0, 1, 2, 3))) == m


def test_local_basis_change_cycles_jw():
    m = mapping.jordan_wigner(2)
    out = equiv.apply_symmetry(m, LocalBasisChange(0, (("Y", 1), ("Z", 1), ("X", 1))))
    assert [pauli.format_pauli(g) for g in out.gammas] == [
        "+1 Y0",
        "+1 Z0",
        "+1 X0 X1",
        "+1 X0 Y1",
    ]


def test_apply_symmetry_preserves_validity_and_fingerprint():
    rng = random.Random(50)
    for seed in range(30):
        n = rng.randrange(1, 6)
        t = ttree.random_tree(n, seed)
        m = ttree.canonical_mapping(t)
        fp = equiv.fingerprint(m)
        for _ in range(4):
            m = equiv.apply_symmetry(m, random_op(rng, n))
        assert mapping.validate(m) is None
        assert equiv.fingerprint(m) == fp


def test_equivalent_reflexive():
    m = mapping.named_mapping("bravyi_kitaev", 2)
    res = equiv.equivalent(m, m)
    assert isinstance(res, Equivalent) and res.witness == ()


def test_equivalent_symmetric_on_samples():
    rng = random.Random(51)
    for seed in range(5):
        n = rng.randrange(2, 4)
        m1 = ttree.canonical_mapping(ttree.random_tree(n, seed))
        m2 = equiv.apply_symmetries(
            m1, [random_op(rng, n) for _ in range(3)]
        )
        r12 = equiv.equivalent(m1, m2)
        r21 = equiv.equivalent(m2, m1)
        assert isinstance(r12, Equivalent) and isinstance(r21, Equivalent)


def test_equivalent_jw_vs_affine_example():
    from fermap import encoding

    m5 = encoding.majoranas_of_affine(
        encoding.AffineEncoding(gf2.identity_matrix(2), 0b01)
    )
    res = equiv.equivalent(mapping.jordan_wigner(2), m5)
    assert isinstance(res, Equivalent)
    assert equiv.apply_symmetries(mapping.jordan_wigner(2), res.witness) == m5


def test_equivalent_jw_vs_bk_inequivalent():
    res = equiv.equivalent(mapping.jordan_wigner(2), mapping.named_mapping("bravyi_kitaev", 2))
    assert isinstance(res, Inequivalent)


def test_equivalent_constructed_equivalences_with_replay():
    rng = random.Random(52)
    for trial in range(30):
        n = rng.randrange(2, 5)
        m1 = ttree.canonical_mapping(ttree.random_tree(n, rng.randrange(10**6)))
        ops = [random_op(rng, n) for _ in range(rng.randrange(1, 5))]
        m2 = equiv.apply_symmetries(m1, ops)
        res = equiv.equivalent(m1, m2)
        assert isinstance(res, Equivalent), (trial, res)
        assert equiv.apply_symmetries(m1, res.witness) == m2


def test_equivalent_budget_gives_unknown():
    m = mapping.jordan_wigner(5)
    m2 = equiv.apply_symmetry(m, SignChange(0))
    res = equiv.equivalent(m, m2, budget=100)
    assert isinstance(res, Unknown)


def test_equivalent_size_mismatch():
    with pytest.raises(ValueError):
        equiv.equivalent(mapping.jordan_wigner(2), mapping.jordan_wigner(3))


def test_classify_two_mode_references(product_breaking_two_mode):
    assert equiv.classify_two_mode(mapping.jordan_wigner(2)) is TwoModeTemplate.JW
    assert (
        equiv.classify_two_mode(mapping.named_mapping("bravyi_kitaev", 2))
        is TwoModeTemplate.BK
    )
    assert (
        equiv.classify_two_mode(product_breaking_two_mode)
        is TwoModeTemplate.PRODUCT_BREAKING
    )


def test_classify_two_mode_rejects_other_sizes():
    with pytest.raises(ValueError):
        equiv.classify_two_mode(mapping.jordan_wigner(3))


def test_two_mode_census_golden_counts():
    census = equiv.two_mode_census()
    assert census.total == 720
    assert census.counts == {
        TwoModeTemplate.JW: 144,
        TwoModeTemplate.BK: 288,
        TwoModeTemplate.PRODUCT_BREAKING: 288,
    }
    assert all(v > 0 for v in census.counts.values())


def test_census_classes_agree_with_equivalence_decision():
    """One census member per class is equivalent to its reference mapping."""
    refs = {
        TwoModeTemplate.JW: mapping.jordan_wigner(2),
        TwoModeTemplate.BK: mapping.named_mapping("bravyi_kitaev", 2),
    }
    # a PB reference: split the single-qubit operators across the pairs
    refs[TwoModeTemplate.PRODUCT_BREAKING] = mapping.FermionQubitMapping(
        2,
        (
            (pauli.parse_pauli("+1 X0", 2), pauli.parse_pauli("+1 Z0 X1", 2)),
            (pauli.parse_pauli("+1 Y0", 2), pauli.parse_pauli("+1 Z0 Y1", 2)),
        ),
    )
    rng = random.Random(53)
    strings = [
        pauli.from_letters((a, b))
        for a in "IXYZ"
        for b in "IXYZ"
        if (a, b) != ("I", "I")
    ]
    import itertools

    members = {t: [] for t in TwoModeTemplate}
    for quad in itertools.permutations(strings, 4):
        if all(
            pauli.anticommutes(quad[i], quad[j])
            for i in range(4)
            for j in range(i + 1, 4)
        ):
            m = mapping.FermionQubitMapping(2, ((quad[0], quad[1]), (quad[2], quad[3])))
            members[equiv.classify_two_mode(m)].append(m)
    for template, pool in members.items():
        for m in rng.sample(pool, 8):
            assert isinstance(equiv.equivalent(m, refs[template]), Equivalent)
    # across classes: inequivalent
    assert isinstance(
        equiv.equivalent(refs[TwoModeTemplate.JW], refs[TwoModeTemplate.BK]), Inequivalent
    )
    assert isinstance(
        equiv.equivalent(
            refs[TwoModeTemplate.BK], refs[TwoModeTemplate.PRODUCT_BREAKING]
        ),
        Inequivalent,
    )


def test_jw_template_set_builder_members_classify_as_jw():
    """Every census member matching the JW pair-shape classifies as JW."""
    import itertools

    letters = "XYZ"
    count = 0
    for (a, b, c) in itertools.permutations(letters, 3):
        for (a2, b2) in itertools.permutations(letters, 2):
            for i in (0, 1):
                j = 1 - i
                single = [["I", "I"], ["I", "I"]]
                op_a = ["I", "I"]; op_a[i] = a
                op_b = ["I", "I"]; op_b[i] = b
                op_c1 = ["I", "I"]; op_c1[i] = c; op_c1[j] = a2
                op_c2 = ["I", "I"]; op_c2[i] = c; op_c2[j] = b2
                m = mapping.FermionQubitMapping(
                    2,
                    (
                        (pauli.from_letters(op_a), pauli.from_letters(op_b)),
                        (pauli.from_letters(op_c1), pauli.from_letters(op_c2)),
                    ),
                )
                assert mapping.validate(m) is None
                assert equiv.classify_two_mode(m) is TwoModeTemplate.JW
                count += 1
    assert count == 72


def test_witness_serialization_round_trip():
    rng = random.Random(54)
    for seed in range(10):
        n = rng.randrange(2, 5)
        ops = tuple(random_op(rng, n) for _ in range(4))
        text = equiv.format_ops(ops)
        assert equiv.parse_ops(text) == ops


def test_parse_ops_rejects_unknown():
    for line in ("rotate 1 2", "sign-change", "pair-braid 0", "pair-braid 0 x"):
        with pytest.raises(ValueError):
            equiv.parse_ops(line + "\n")
