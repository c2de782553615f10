"""Ternary trees: path strings, pairings, canonical mappings, revacuuming."""

import itertools
import random
import sys

import numpy as np
import pytest

from conftest import dense_state
from fermap import cli, equiv, gf2, mapping, oracle, pauli, ttree
from fermap.equiv import PairBraid, SignChange
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


@pytest.mark.parametrize("label", ["01", "+1", "1_0", "\u0661"])
def test_parse_rejects_non_canonical_labels(label):
    with pytest.raises(MalformedTree, match="vertex label"):
        ttree.parse_tree(f"(0 X=({label}))")


def test_path_paulis_chain():
    t = ttree.parse_tree(CHAIN)
    got = {str(p) for p in ttree.canonical_paths(t)}
    assert got == {"+1 X0", "-i Y0", "+1 Z0 X1", "-i Z0 Y1", "+1 Z0 Z1"}  # plain X^x Z^z words


def test_path_paulis_single_vertex():
    t = ttree.parse_tree("(0)")
    assert {str(p) for p in ttree.canonical_paths(t)} == {"+1 X0", "-i Y0", "+1 Z0"}


def test_path_paulis_maximally_anticommuting():
    rng = random.Random(41)
    for seed in range(20):
        n = rng.randrange(1, 9)
        t = ttree.random_tree(n, seed)
        strings = ttree.canonical_paths(t)
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
        pool = {(s.x, s.z) for s in ttree.canonical_paths(t)}
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
        want = dense_state(v)
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
    overlap = abs(np.vdot(dense, dense_state(v)))
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
    assert paths[-1].x == 0 and str(paths[-1]) == "+1 Z0 Z4"


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


def test_tree_matrix_is_invertible():
    rng = random.Random(49)
    trees = [ttree.random_tree(rng.randrange(1, 61), seed) for seed in range(120)]
    for t in trees + [ttree.complete_tree(4)]:
        gf2.invert(ttree.tree_matrix(t))


def test_complete_tree_sizes_and_shape():
    assert ttree.complete_tree(1).n == 1
    t4 = ttree.complete_tree(2)
    assert t4.n == 4
    root = t4.root
    assert all(t4.child(root, ell) is not None for ell in "XYZ")
    assert ttree.complete_tree(3).n == 13
    assert ttree.complete_tree(4).n == 40


def test_random_tree_rejects_empty():
    for n in (0, -1):
        with pytest.raises(ValueError, match="at least one vertex"):
            ttree.random_tree(n, 0)


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
        pool = {(s.x, s.z) for s in ttree.canonical_paths(t2)}
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
            out = pauli.apply_to_product_state(pauli.multiply(paths[2 * i], paths[2 * i + 1]), zero)
            assert out == zero


# -- reference: the recursive (vertex, letter) walk ---------------------------

def _ref_steps(t, canonical):
    """Root-to-leaf (vertex, letter) step lists; Y edges reverse order if canonical."""
    out = []

    def visit(vertex, prefix, flipped):
        for letter in ("Z", "Y", "X") if flipped else ("X", "Y", "Z"):
            step = prefix + [(vertex, letter)]
            child = t.child(vertex, letter)
            if child is None:
                out.append(step)
            else:
                visit(child, step, flipped ^ (canonical and letter == "Y"))

    visit(t.root, [], False)
    return out


def _ref_string(n, steps):
    """+1 times the tensor product of the letters spelled by the steps."""
    letters = ["I"] * n
    for vertex, letter in steps:
        letters[vertex] = letter
    return pauli.from_letters(letters)


def _ref_stab_pair(letter, sign):
    """The ordered pair (B, C) with -iBC equal to sign * letter."""
    want = pauli.from_letters(letter, 0 if sign > 0 else 2)
    for b, c in itertools.permutations(set("XYZ") - {letter}, 2):
        if pauli.multiply(pauli.from_letters(b), pauli.from_letters(c)).times_i(3) == want:
            return b, c


def _ref_pair_for_vacuum(t, v):
    ancestors = {}

    def visit(vertex, prefix):
        ancestors[vertex] = prefix
        for letter in "XYZ":
            child = t.child(vertex, letter)
            if child is not None:
                visit(child, prefix + [(vertex, letter)])

    visit(t.root, [])
    pairs = []
    for i in range(t.n):
        ops, minus = [], 0
        for letter in _ref_stab_pair(*v.qubit_states[i]):
            steps = ancestors[i] + [(i, letter)]
            child = t.child(i, letter)
            while child is not None:
                stab, sign = v.qubit_states[child]
                steps.append((child, stab))
                minus += sign < 0
                child = t.child(child, stab)
            ops.append(_ref_string(t.n, steps))
        pairs.append(tuple(reversed(ops)) if minus % 2 else tuple(ops))
    return mapping.FermionQubitMapping(t.n, tuple(pairs))


def test_path_words_match_recursive_letter_walk():
    rng = random.Random(56)
    for seed in range(200):
        n = rng.randrange(1, 13)
        t = ttree.random_tree(n, seed)
        ref = [_ref_string(n, steps) for steps in _ref_steps(t, canonical=True)]
        plain = [pauli.PauliString(n, p.x, p.z) for p in ref]
        assert list(ttree.canonical_paths(t)) == plain
        unordered = [_ref_string(n, steps) for steps in _ref_steps(t, canonical=False)]
        assert set(plain) == {pauli.PauliString(n, p.x, p.z) for p in unordered}
        v = random_product_state(rng, n)
        assert ttree.pair_for_vacuum(t, v) == _ref_pair_for_vacuum(t, v)


def _ref_pair_transform(pair, canon):
    """How ``pair`` relates to the canonical vacuum pairing at its vertex."""
    a, b = pair
    ca, cb = canon
    if (a, b) == (ca, cb):
        return "id"
    if (a, b) == (ca.negated(), cb.negated()):
        return "negate"
    if (a, b) == (cb, ca.negated()):
        return "braid"
    if (a, b) == (cb.negated(), ca):
        return "braid_neg"
    raise ValueError("pair is not a vacuum-preserving arrangement of path strings")


_REF_APPLY_TRANSFORM = {
    "id": lambda a, b: (a, b),
    "negate": lambda a, b: (a.negated(), b.negated()),
    "braid": lambda a, b: (b, a.negated()),
    "braid_neg": lambda a, b: (b.negated(), a),
}


def _ref_revacuum(t, m, target):
    """Re-vacuuming with per-qubit letter dicts and a rebuilt letter-dict tree."""
    if target.n != t.n or m.n != t.n:
        raise ValueError("size mismatch")
    if target.phase != 0:
        raise ValueError("target vacuum must carry phase +1")
    old = mapping.vacuum_state(m)
    if isinstance(old, mapping.NonProduct):
        raise ValueError(f"mapping is not product-preserving: {old}")
    canon_old = _ref_pair_for_vacuum(t, old)
    transforms = []
    for a, b in m.pairs:
        q = ttree._divergence_vertex(a, b)
        transforms.append((q, _ref_pair_transform((a, b), canon_old.pairs[q])))
    children = {}
    for q, (old_state, new_state) in enumerate(zip(old.qubit_states, target.qubit_states)):
        ob, oc = _ref_stab_pair(*old_state)
        nb, nc = _ref_stab_pair(*new_state)
        rho = {ob: nb, oc: nc}
        (last_old,) = set("XYZ") - {ob, oc}
        (last_new,) = set("XYZ") - {nb, nc}
        rho[last_old] = last_new
        slots = {rho[ell]: t.child(q, ell) for ell in "XYZ" if t.child(q, ell) is not None}
        if slots:
            children[q] = slots
    t_new = ttree.build_tree(t.n, t.root, children)
    canon_new = _ref_pair_for_vacuum(t_new, target)
    pairs = tuple(_REF_APPLY_TRANSFORM[kind](*canon_new.pairs[q]) for q, kind in transforms)
    return t_new, mapping.FermionQubitMapping(t.n, pairs)


def _outcome(fn, *args):
    """The call's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001  compared, not swallowed
        return type(exc), str(exc)


def test_revacuum_matches_letter_dict_reference():
    rng = random.Random(57)
    outcomes = {"ok": 0, "raised": 0}
    for seed in range(80):
        n = rng.randrange(1, 11)
        t = ttree.random_tree(n, seed)
        other = ttree.random_tree(n, seed + 1000)  # its pairings are foreign to t
        bases = [
            ttree.pair_for_vacuum(t, random_product_state(rng, n)),
            ttree.braided_real_pairing(t),
            ttree.legacy_pairing(t),
            ttree.canonical_mapping(t),
            ttree.pair_for_vacuum(other, random_product_state(rng, n)),
        ]
        (a, b), *rest = bases[0].pairs  # i times a pair: not Hermitian, no arrangement
        bases.append(mapping.FermionQubitMapping(n, ((a.times_i(), b.times_i()), *rest)))
        for base in bases:
            word = [
                PairBraid(rng.randrange(n), rng.choice((1, -1))) if rng.random() < 0.5
                else SignChange(rng.randrange(2 * n))
                for _ in range(rng.randrange(4))
            ]
            m = equiv.apply_symmetries(base, word)
            target = mapping.vacuum_state(m) if rng.random() < 0.25 else random_product_state(rng, n)
            got = _outcome(ttree.revacuum, t, m, target)
            assert got == _outcome(_ref_revacuum, t, m, target)
            outcomes["raised" if type(got) is tuple and type(got[0]) is type else "ok"] += 1
    assert outcomes["ok"] >= 150 and outcomes["raised"] >= 30


def test_deep_chain_beyond_recursion_limit(tmp_path, capsys):
    n = sys.getrecursionlimit() + 200
    text = "".join(f"({v} Z=" for v in range(n - 1)) + f"({n - 1})" + ")" * (n - 1)
    t = ttree.parse_tree(text)
    assert t.n == n and ttree.format_tree(t) == text
    jw = mapping.jordan_wigner(n)
    assert ttree.canonical_mapping(t) == jw
    assert ttree.legacy_pairing(t) == jw
    assert ttree.tree_matrix(t) == gf2.identity_matrix(n)
    tree_file = tmp_path / "chain.tree"
    tree_file.write_text(text)
    assert cli.run(["tree-matrix", "--tree", str(tree_file)]) == 0
    out, err = capsys.readouterr()
    assert gf2.parse_matrix(out) == gf2.identity_matrix(n) and err == ""
