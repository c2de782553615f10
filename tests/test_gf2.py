"""GF(2) matrices, UFPR sets, and the named encoding matrices."""

import random

import pytest

from fermap import gf2, ttree
from fermap.gf2 import BinMatrix, Singular


def brute_sets(g: BinMatrix, i: int):
    """UFPR sets straight from their definitions, no bit tricks."""
    n = g.n
    ginv = gf2.invert(g)
    u = frozenset(r for r in range(n) if (g.rows[r] >> i) & 1)
    f = frozenset(c for c in range(n) if (ginv.rows[i] >> c) & 1)
    p = frozenset()
    for k in range(i):
        p = p ^ frozenset(c for c in range(n) if (ginv.rows[k] >> c) & 1)
    return u, f, p, f ^ p


def gauss_jordan_inverse(g: BinMatrix) -> BinMatrix:
    """Reference inverse: Gauss-Jordan with a row swap per column."""
    n = g.n
    work = list(g.rows)
    inv = [1 << i for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if (work[r] >> col) & 1), None)
        if pivot is None:
            raise Singular(f"no pivot in column {col}")
        work[col], work[pivot] = work[pivot], work[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        for r in range(n):
            if r != col and ((work[r] >> col) & 1):
                work[r] ^= work[col]
                inv[r] ^= inv[col]
    return BinMatrix(n, tuple(inv))


def popcount_mat_mul(a: BinMatrix, b: BinMatrix) -> BinMatrix:
    """Reference product: entry (i, j) is the parity of row i of A and column j of B."""
    cols = [sum(((r >> j) & 1) << k for k, r in enumerate(b.rows)) for j in range(b.n)]
    return BinMatrix(a.n, tuple(sum(((ra & c).bit_count() & 1) << j for j, c in enumerate(cols)) for ra in a.rows))


def entry_transpose(g: BinMatrix) -> BinMatrix:
    return BinMatrix(g.n, tuple(sum(((r >> j) & 1) << i for i, r in enumerate(g.rows)) for j in range(g.n)))


def reference_corpus():
    """All 3x3 matrices, seeded random ones (n <= 12, many singular), G_T of
    random trees (n <= 300), BK 256, parity 256 and the identity."""
    out = [BinMatrix(3, (k & 7, k >> 3 & 7, k >> 6)) for k in range(512)]
    rng = random.Random(16)
    for _ in range(300):
        n = rng.randrange(1, 13)
        rows = [rng.getrandbits(n) for _ in range(n)]
        if n > 1 and rng.random() < 0.2:  # a repeated row: singular by construction
            rows[rng.randrange(n)] = rows[rng.randrange(n)]
        out.append(BinMatrix(n, tuple(rows)))
    for n in (1, 2, 3, 7, 20, 64, 150, 300):
        for seed in range(2):
            out.append(ttree.tree_matrix(ttree.random_tree(n, seed)))
    out += [gf2.named_matrix("bravyi_kitaev", 256), gf2.named_matrix("parity", 256), gf2.identity_matrix(256)]
    return out


def test_invert_mat_mul_transpose_match_references():
    """invert agrees with Gauss-Jordan (or both raise Singular); mat_mul and
    transpose agree with their entrywise references."""
    rng = random.Random(17)
    singular = 0
    for g in reference_corpus():
        try:
            expected = gauss_jordan_inverse(g)
        except Singular:
            singular += 1
            with pytest.raises(Singular):
                gf2.invert(g)
        else:
            assert gf2.invert(g) == expected
        h = BinMatrix(g.n, tuple(rng.getrandbits(g.n) for _ in range(g.n)))
        assert gf2.mat_mul(g, h) == popcount_mat_mul(g, h)
        assert gf2.mat_mul(h, g) == popcount_mat_mul(h, g)
        assert g.transpose() == entry_transpose(g)
    assert singular > 400


def test_invert_identity():
    g = gf2.identity_matrix(4)
    assert gf2.invert(g) == g


def test_invert_parity_matrix_is_bidiagonal():
    g = gf2.named_matrix("parity", 4)
    ginv = gf2.invert(g)
    assert gf2.mat_mul(g, ginv) == gf2.identity_matrix(4)
    expected = BinMatrix(4, (0b0001, 0b0011, 0b0110, 0b1100))
    assert ginv == expected


def test_invert_singular():
    with pytest.raises(Singular):
        gf2.invert(BinMatrix(3, (0, 0, 0)))
    with pytest.raises(Singular):
        gf2.invert(BinMatrix(2, (0b11, 0b11)))


def test_invert_round_trip():
    for seed in range(30):
        g = gf2.random_invertible(seed % 10 + 2, seed)
        assert gf2.invert(gf2.invert(g)) == g
        assert gf2.mat_mul(g, gf2.invert(g)) == gf2.identity_matrix(g.n)


def test_ufpr_identity_case():
    u, f, p, r = gf2.ufpr_sets(gf2.identity_matrix(4), 2)
    assert (u, f, p, r) == ({2}, {2}, {0, 1}, {0, 1, 2})


def test_ufpr_parity_matrix_case():
    u, f, p, r = gf2.ufpr_sets(gf2.named_matrix("parity", 4), 1)
    assert u == {1, 2, 3}
    assert f == {0, 1}
    assert p == {0}
    assert r == {1}


def test_ufpr_matches_brute_force():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randrange(2, 9)
        g = gf2.random_invertible(n, rng.randrange(10**6))
        for i in range(n):
            assert gf2.ufpr_sets(g, i) == brute_sets(g, i)


def test_ufpr_parity_lemma():
    """|U&F| odd, |U&P| even, |U&R| odd for random invertible matrices."""
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randrange(1, 13)
        g = gf2.random_invertible(n, rng.randrange(10**6))
        for i in range(n):
            u, f, p, r = gf2.ufpr_sets(g, i)
            assert len(u & f) % 2 == 1
            assert len(u & p) % 2 == 0
            assert len(u & r) % 2 == 1


def test_ufpr_index_range():
    with pytest.raises(ValueError):
        gf2.ufpr_sets(gf2.identity_matrix(3), 3)


def test_named_parity():
    assert gf2.named_matrix("parity", 3).rows == (0b001, 0b011, 0b111)


def test_named_bravyi_kitaev_small():
    assert gf2.named_matrix("bravyi_kitaev", 1).rows == (1,)
    assert gf2.named_matrix("bravyi_kitaev", 2).rows == (0b11, 0b10)
    b4 = gf2.named_matrix("bravyi_kitaev", 4)
    assert b4.rows == (0b1111, 0b0010, 0b1100, 0b1000)
    assert gf2.mat_mul(b4, gf2.invert(b4)) == gf2.identity_matrix(4)
    b16 = gf2.named_matrix("bravyi_kitaev", 16)
    assert gf2.mat_mul(b16, gf2.invert(b16)) == gf2.identity_matrix(16)


def test_named_bravyi_kitaev_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        gf2.named_matrix("bravyi_kitaev", 6)


def test_named_unknown_kind():
    with pytest.raises(ValueError):
        gf2.named_matrix("fenwick", 4)


def test_mat_vec():
    g = gf2.identity_matrix(4)
    assert gf2.mat_vec(g, 0b1101) == 0b1101
    parity = gf2.named_matrix("parity", 4)
    assert gf2.mat_vec(parity, 0b0001) == 0b1111
    # column read-off: G e_i is column i
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randrange(1, 10)
        g = gf2.random_invertible(n, rng.randrange(10**6))
        for i in range(n):
            assert gf2.mat_vec(g, 1 << i) == sum(((row >> i) & 1) << r for r, row in enumerate(g.rows))


def test_transpose_random():
    rng = random.Random(15)
    for _ in range(30):
        n = rng.randrange(1, 40)
        g = BinMatrix(n, tuple(rng.randrange(1 << n) for _ in range(n)))
        gt = g.transpose()
        assert all(gt.rows[j] >> i & 1 == g.rows[i] >> j & 1 for i in range(n) for j in range(n))
        assert gt.transpose() == g


def test_random_invertible_deterministic():
    a = gf2.random_invertible(6, seed=1)
    b = gf2.random_invertible(6, seed=1)
    assert a == b
    assert gf2.mat_mul(a, gf2.invert(a)) == gf2.identity_matrix(6)
    assert gf2.random_invertible(6, seed=2) != a


def test_matrix_file_round_trip():
    rng = random.Random(14)
    for _ in range(20):
        n = rng.randrange(1, 9)
        g = gf2.random_invertible(n, rng.randrange(10**6))
        assert gf2.parse_matrix(gf2.format_matrix(g)) == g
    text = gf2.format_matrix(gf2.named_matrix("parity", 3))
    assert text == "100\n110\n111\n"


def test_parse_matrix_rejects_bad_rows():
    with pytest.raises(ValueError):
        gf2.parse_matrix("10\n1\n")
    with pytest.raises(ValueError):
        gf2.parse_matrix("12\n01\n")


def test_set_bits_sparse_and_dense():
    rng = random.Random(15)
    masks = [0, 1, 1 << 999, (1 << 33) - 1, (1 << 32) - 1, (1 << 3000) - 1]
    masks += [rng.getrandbits(rng.randrange(1, 400)) for _ in range(200)]
    masks += [sum(1 << rng.randrange(2000) for _ in range(rng.randrange(8))) for _ in range(200)]
    for mask in masks:
        assert list(gf2.set_bits(mask)) == [j for j in range(mask.bit_length()) if mask >> j & 1]
