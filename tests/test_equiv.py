"""Labelling symmetries, fingerprints, equivalence search, two-mode census."""

import itertools
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


# -- letter-walk references --------------------------------------------------------


def _letters(p):
    return [p.letter(j) for j in range(p.n)]


def _permute_qubits_ref(p, perm):
    moved = ["I"] * p.n
    for i, ell in enumerate(_letters(p)):
        moved[perm[i]] = ell
    return pauli.from_letters(moved, p.display_power())


def _relabel_letters_ref(p, qubit, image):
    letters = _letters(p)
    ell = letters[qubit]
    if ell == "I":
        return p
    new_letter, sign = image[pauli.LETTERS.index(ell)]
    letters[qubit] = new_letter
    return pauli.from_letters(letters, p.display_power() + (2 if sign < 0 else 0))


def _apply_symmetry_ref(m, op):
    if isinstance(op, QubitSwap):
        relabel = lambda p: _permute_qubits_ref(p, op.perm)  # noqa: E731
    elif isinstance(op, LocalBasisChange):
        relabel = lambda p: _relabel_letters_ref(p, op.qubit, op.image)  # noqa: E731
    else:  # braids, signs and mode swaps never touch letters
        return equiv.apply_symmetry(m, op)
    return mapping.FermionQubitMapping(m.n, tuple((relabel(a), relabel(b)) for a, b in m.pairs))


def _fingerprint_ref(m):
    weight_sig = tuple(sorted(tuple(sorted((a.weight(), b.weight()))) for a, b in m.pairs))
    qubit_parts = []
    for q in range(m.n):
        raw = [tuple(sorted((a.letter(q), b.letter(q)))) for a, b in m.pairs]
        qubit_parts.append(min(
            tuple(sorted(tuple(sorted(rho.get(ell, "I") for ell in item)) for item in raw))
            for rho in equiv._ALL_PERMS
        ))
    return (m.n, weight_sig, tuple(sorted(qubit_parts)))


def _sample_mappings(rng, count):
    named = [mapping.named_mapping(name, n) for name in ("jordan_wigner", "parity")
             for n in range(1, 9)] + [mapping.named_mapping("bravyi_kitaev", n) for n in (2, 4, 8)]
    trees = [ttree.canonical_mapping(ttree.random_tree(rng.randrange(1, 9), rng.randrange(10**6)))
             for _ in range(count - len(named))]
    return named + trees


def test_apply_symmetry_matches_letter_walk():
    rng = random.Random(55)
    images = []
    for letters in itertools.permutations("XYZ"):
        for signs in itertools.product((1, -1), repeat=3):
            try:
                LocalBasisChange(0, tuple(zip(letters, signs)))
            except ValueError:
                continue
            images.append(tuple(zip(letters, signs)))
    assert len(images) == 24
    kinds = set()
    for m in _sample_mappings(rng, 60):
        ops = [random_op(rng, m.n) for _ in range(5)]
        ops += [LocalBasisChange(rng.randrange(m.n), image) for image in rng.sample(images, 6)]
        rng.shuffle(ops)
        for op in ops:
            kinds.add(type(op))
            out = equiv.apply_symmetry(m, op)
            assert out == _apply_symmetry_ref(m, op), op
            m = out
    # every signed image on every qubit of a mapping with all three letters
    m = mapping.named_mapping("bravyi_kitaev", 4)
    for q in range(4):
        for image in images:
            op = LocalBasisChange(q, image)
            assert equiv.apply_symmetry(m, op) == _apply_symmetry_ref(m, op)
    assert kinds == {QubitSwap, LocalBasisChange, PairBraid, SignChange, FermionSwap}


def _change_one_letter(rng, m):
    """m with one letter of one operator renamed: every weight stays the same."""
    gammas = list(m.gammas)
    k = rng.randrange(2 * m.n)
    p = gammas[k]
    j = rng.choice(p.support)
    code = rng.choice([c for c in (1, 2, 3) if c != (p.x >> j & 1) | (p.z >> j & 1) << 1])
    keep = ~(1 << j)
    gammas[k] = pauli.PauliString(
        m.n, p.x & keep | (code & 1) << j, p.z & keep | (code >> 1) << j, p.phase
    )
    return mapping.FermionQubitMapping(m.n, tuple(zip(gammas[::2], gammas[1::2])))


def test_fingerprint_relation_matches_multiset_reference():
    rng = random.Random(56)
    outcomes = {True: 0, False: 0}
    same_weights = 0
    mappings = _sample_mappings(rng, 160)
    for m1 in mappings:
        relabelled = equiv.apply_symmetries(m1, [random_op(rng, m1.n) for _ in range(4)])
        changed = equiv.apply_symmetries(_change_one_letter(rng, m1), [random_op(rng, m1.n)])
        same_n = [m for m in mappings if m.n == m1.n]
        for m2 in (relabelled, changed, rng.choice(same_n), rng.choice(same_n)):
            same = equiv.fingerprint(m1) == equiv.fingerprint(m2)
            ref1, ref2 = _fingerprint_ref(m1), _fingerprint_ref(m2)
            assert same == (ref1 == ref2)
            outcomes[same] += 1
            same_weights += not same and ref1[1] == ref2[1]
    # the per-qubit parts, not just the weight signatures, must decide many pairs
    assert min(outcomes.values()) >= 100 and same_weights >= 100


def test_symmetries_and_fingerprint_at_thousand_modes():
    m = ttree.canonical_mapping(ttree.random_tree(1000, 1))
    fp = equiv.fingerprint(m)
    perm = list(range(1000))
    random.Random(57).shuffle(perm)
    m = equiv.apply_symmetry(m, QubitSwap(tuple(perm)))
    m = equiv.apply_symmetry(m, LocalBasisChange(perm[0], (("Y", 1), ("X", 1), ("Z", -1))))
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
    for line in (
        "rotate 1 2", "sign-change", "pair-braid 0", "pair-braid 0 x",
        # indices must be plain ASCII decimals, as in the other text formats
        "pair-braid -1 +", "sign-change +01", "qubit-swap \u0661 0",
        "basis-change \u0663 X->Y Y->X Z->-Z", "fermion-swap 1 00",
    ):
        with pytest.raises(ValueError):
            equiv.parse_ops(line + "\n")


def test_pair_braid_mode_out_of_range():
    m = mapping.jordan_wigner(2)
    for mode in (-1, 2):
        with pytest.raises(ValueError, match="mode out of range"):
            equiv.apply_symmetry(m, PairBraid(mode, 1))
