"""GF(2) matrices, UFPR sets, and the named encoding matrices."""

import random

import pytest

from fermap import gf2
from fermap.gf2 import BinMatrix, Singular


def brute_sets(g: BinMatrix, i: int):
    """UFPR sets straight from their definitions, no bit tricks."""
    n = g.n
    ginv = gf2.invert(g)
    u = frozenset(r for r in range(n) if g.entry(r, i))
    f = frozenset(c for c in range(n) if ginv.entry(i, c))
    p = frozenset()
    for k in range(i):
        p = p ^ frozenset(c for c in range(n) if ginv.entry(k, c))
    return u, f, p, f ^ p


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


def test_named_parity_and_pi():
    assert gf2.named_matrix("parity", 3).rows == (0b001, 0b011, 0b111)
    assert gf2.named_matrix("pi", 3).rows == (0b000, 0b001, 0b011)


def test_named_bravyi_kitaev_small():
    assert gf2.named_matrix("bravyi_kitaev", 1).rows == (1,)
    assert gf2.named_matrix("bravyi_kitaev", 2).rows == (0b11, 0b10)
    b4 = gf2.named_matrix("bravyi_kitaev", 4)
    assert b4.rows == (0b1111, 0b0010, 0b1100, 0b1000)
    assert gf2.is_invertible(b4)
    assert gf2.is_invertible(gf2.named_matrix("bravyi_kitaev", 16))


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
            assert gf2.mat_vec(g, 1 << i) == g.column(i)


def test_transpose_random():
    rng = random.Random(15)
    for _ in range(30):
        n = rng.randrange(1, 40)
        g = BinMatrix(n, tuple(rng.randrange(1 << n) for _ in range(n)))
        gt = g.transpose()
        assert all(gt.entry(j, i) == g.entry(i, j) for i in range(n) for j in range(n))
        assert gt.transpose() == g


def test_random_invertible_deterministic():
    a = gf2.random_invertible(6, seed=1)
    b = gf2.random_invertible(6, seed=1)
    assert a == b
    assert gf2.is_invertible(a)
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
