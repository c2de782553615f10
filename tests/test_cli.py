"""CLI subcommands: emission, verification, round-trips, exit codes."""

import json

import pytest

from fermap import cli, equiv, gf2, mapping, pauli, ttree


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_known_jw(capsys):
    code, out, _ = run(capsys, "known", "--name", "jw", "--n", "2")
    assert code == 0
    m = mapping.parse_mapping(out)
    assert m == mapping.jordan_wigner(2)


def test_known_sierpinski_sizes(capsys):
    code, out, _ = run(capsys, "known", "--name", "sierpinski", "--n", "13")
    assert code == 0
    assert mapping.parse_mapping(out).n == 13
    code, _, err = run(capsys, "known", "--name", "sierpinski", "--n", "5")
    assert code == 2 and "sierpinski" in err


def test_known_bk_requires_power_of_two(capsys):
    code, _, err = run(capsys, "known", "--name", "bk", "--n", "3")
    assert code == 2 and "power of 2" in err


@pytest.mark.parametrize("name", ["jw", "bk", "parity"])
def test_known_rejects_zero_modes(capsys, name):
    code, out, err = run(capsys, "known", "--name", name, "--n", "0")
    assert code == 2 and out == "" and "n must be positive" in err


def test_tree_mapping_pairings(tmp_path, capsys):
    tree_file = tmp_path / "t.tree"
    tree_file.write_text("(0 X=(1) Y=(2 Z=(3)) Z=(4))")
    for pairing in ("canonical", "legacy", "real"):
        code, out, _ = run(
            capsys, "tree-mapping", "--tree", str(tree_file), "--pairing", pairing
        )
        assert code == 0
        m = mapping.parse_mapping(out)
        assert mapping.validate(m) is None
    code, out, _ = run(
        capsys,
        "tree-mapping", "--tree", str(tree_file),
        "--pairing", "legacy", "--vacuum", "01r1+",
    )
    assert code == 0
    m = mapping.parse_mapping(out)
    assert mapping.vacuum_state(m) == pauli.state_from_chars("01r1+")


def test_tree_mapping_vacuum_size_check(tmp_path, capsys):
    tree_file = tmp_path / "t.tree"
    tree_file.write_text("(0 Z=(1))")
    code, _, err = run(
        capsys, "tree-mapping", "--tree", str(tree_file), "--pairing", "legacy",
        "--vacuum", "000",
    )
    assert code == 2 and "vacuum" in err


def test_tree_matrix_chain(tmp_path, capsys):
    tree_file = tmp_path / "t.tree"
    tree_file.write_text("(0 Z=(1))")
    code, out, _ = run(capsys, "tree-matrix", "--tree", str(tree_file))
    assert code == 0
    assert gf2.parse_matrix(out) == gf2.identity_matrix(2)


def test_verify_pass_and_fail(tmp_path, capsys):
    good = tmp_path / "good.map"
    good.write_text(mapping.format_mapping(mapping.jordan_wigner(3)))
    code, out, _ = run(capsys, "verify", "--mapping", str(good), "--oracle")
    assert code == 0
    assert "result: pass" in out

    bad = tmp_path / "bad.map"
    bad.write_text("n=2\npair 0: +1 X0 ; +1 X0\npair 1: +1 Z0 X1 ; +1 Z0 Y1\n")
    code, out, _ = run(capsys, "verify", "--mapping", str(bad))
    assert code == 1
    assert "violation" in out


def test_verify_json(tmp_path, capsys):
    path = tmp_path / "m.map"
    path.write_text(mapping.format_mapping(mapping.named_mapping("bravyi_kitaev", 4)))
    code, out, _ = run(capsys, "verify", "--mapping", str(path), "--json", "--oracle")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True and payload["classical"] is True and payload["linear"] is True


def test_verify_sierpinski_13_sampled(tmp_path, capsys):
    m = ttree.canonical_mapping(ttree.complete_tree(3))
    path = tmp_path / "s13.map"
    path.write_text(mapping.format_mapping(m))
    code, out, _ = run(capsys, "verify", "--mapping", str(path), "--oracle")
    assert code == 0
    assert "sampled 4096" in out and "result: pass" in out


def test_verify_oracle_beyond_dense_limit(tmp_path, capsys):
    code, out, _ = run(capsys, "known", "--name", "sierpinski", "--n", "40")
    path = tmp_path / "s40.map"
    path.write_text(out)
    code, out, _ = run(capsys, "verify", "--mapping", str(path), "--oracle")
    assert code == 0
    lines = out.splitlines()
    assert "classical: True" in lines and "result: pass" in lines
    assert "oracle_linear: skipped: n > 14" in lines


def test_verify_reports_sign_defect_as_not_classical(tmp_path, capsys):
    path = tmp_path / "m.map"
    path.write_text(
        "n=3\n"
        "pair 0: -1 Y0 Y2 ; +1 X0 Y2\n"
        "pair 1: +1 X1 X2 ; +1 Y1 X2\n"
        "pair 2: +1 Z1 X2 ; +1 Z0 Y2\n"
    )
    code, out, _ = run(capsys, "verify", "--mapping", str(path))
    assert code == 0
    assert "classical: False" in out.splitlines()


def test_weights(tmp_path, capsys):
    path = tmp_path / "m.map"
    path.write_text(mapping.format_mapping(mapping.jordan_wigner(4)))
    code, out, _ = run(capsys, "weights", "--mapping", str(path))
    assert code == 0
    assert "max_weight: 4" in out and "mean_weight: 5/2" in out


def test_classify2(tmp_path, capsys):
    path = tmp_path / "m.map"
    path.write_text(mapping.format_mapping(mapping.named_mapping("bravyi_kitaev", 2)))
    code, out, _ = run(capsys, "classify2", "--mapping", str(path))
    assert code == 0 and "BK_template" in out

    path.write_text(mapping.format_mapping(mapping.jordan_wigner(3)))
    code, _, err = run(capsys, "classify2", "--mapping", str(path))
    assert code == 2


def test_equivalent_cli(tmp_path, capsys):
    a = tmp_path / "a.map"
    b = tmp_path / "b.map"
    a.write_text(mapping.format_mapping(mapping.jordan_wigner(2)))
    from fermap import encoding

    m5 = encoding.majoranas_of_affine(encoding.AffineEncoding(gf2.identity_matrix(2), 0b01))
    b.write_text(mapping.format_mapping(m5))
    code, out, _ = run(capsys, "equivalent", "--a", str(a), "--b", str(b))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Equivalent"
    # witness log replays onto the target
    from fermap import equiv

    ops = equiv.parse_ops("\n".join(lines[1:]))
    assert equiv.apply_symmetries(mapping.jordan_wigner(2), ops) == m5

    b.write_text(mapping.format_mapping(mapping.named_mapping("bravyi_kitaev", 2)))
    code, out, _ = run(capsys, "equivalent", "--a", str(a), "--b", str(b))
    assert code == 1 and out.startswith("Inequivalent")


def test_equivalent_respects_max_n(tmp_path, capsys):
    """From n = 5 the library budget answers Unknown; --max-n is no option."""
    jw5 = mapping.jordan_wigner(5)
    a, b = tmp_path / "a.map", tmp_path / "b.map"
    a.write_text(mapping.format_mapping(jw5))
    b.write_text(mapping.format_mapping(equiv.apply_symmetries(jw5, (equiv.QubitSwap((4, 3, 2, 1, 0)),))))
    code, out, _ = run(capsys, "equivalent", "--a", str(a), "--b", str(b))
    assert code == 1 and out == "Unknown: search space 933120 exceeds budget 200000\n"
    code, _, _ = run(capsys, "equivalent", "--a", str(a), "--b", str(b), "--max-n", "5")
    assert code == 2


def test_equivalent_rejects_invalid_mapping(tmp_path, capsys):
    bad = tmp_path / "bad.map"
    bad.write_text("n=1\npair 0: +1 X0 ; +1 X0\n")
    code, out, err = run(capsys, "equivalent", "--a", str(bad), "--b", str(bad))
    assert code == 2 and out == ""
    assert str(bad) in err and "operators 0 and 1 do not anticommute" in err
    good = tmp_path / "good.map"
    good.write_text(mapping.format_mapping(mapping.jordan_wigner(1)))
    code, _, err = run(capsys, "equivalent", "--a", str(good), "--b", str(bad))
    assert code == 2 and str(bad) in err


def test_transform(tmp_path, capsys):
    path = tmp_path / "m.map"
    path.write_text(mapping.format_mapping(mapping.jordan_wigner(2)))
    code, out, _ = run(capsys, "transform", "--mapping", str(path), "--term", "a+ 1 a 1")
    assert code == 0
    assert out == "1/2 * I\n-1/2 * Z1\n"
    code, _, err = run(capsys, "transform", "--mapping", str(path), "--term", "b 1")
    assert code == 2


@pytest.mark.parametrize("term", ["a+ +1 a 0", "a+ \u0661 a 0", "a+ 01 a 0"])
def test_transform_rejects_non_canonical_mode_index(tmp_path, capsys, term):
    path = tmp_path / "m.map"
    path.write_text(mapping.format_mapping(mapping.jordan_wigner(2)))
    code, out, err = run(capsys, "transform", "--mapping", str(path), "--term", term)
    assert code == 2 and out == "" and "bad mode index" in err


def test_dot_output_is_syntactically_plausible(tmp_path, capsys):
    path = tmp_path / "m.map"
    path.write_text(mapping.format_mapping(mapping.named_mapping("bravyi_kitaev", 2)))
    code, out, _ = run(capsys, "dot", "--mapping", str(path))
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("{") == out.count("}") == 1
    assert out.rstrip().endswith("}")
    # one pair arc per mode, labels quoted
    assert out.count("style=dashed") == 2
    assert 'label="mode 0"' in out and 'label="mode 1"' in out


def test_non_canonical_indices_are_input_errors(tmp_path, capsys):
    path = tmp_path / "m.map"
    path.write_text(mapping.format_mapping(mapping.jordan_wigner(2)).replace("X1", "X+1"))
    code, _, err = run(capsys, "verify", "--mapping", str(path))
    assert code == 2 and "X+1" in err
    tree_file = tmp_path / "t.tree"
    tree_file.write_text("(0 X=(01))")
    code, _, err = run(capsys, "tree-matrix", "--tree", str(tree_file))
    assert code == 2 and "vertex label" in err


def test_signed_mapping_header_is_input_error(tmp_path, capsys):
    path = tmp_path / "m.map"
    path.write_text(mapping.format_mapping(mapping.jordan_wigner(1)).replace("n=1", "n=+1"))
    code, _, err = run(capsys, "verify", "--mapping", str(path))
    assert code == 2 and "n=+1" in err


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "verify", "--mapping", "/nonexistent.map")
    assert code == 2 and "/nonexistent.map" in err


def test_emitted_files_reparse(tmp_path, capsys):
    """Round-trip: every emitted artifact re-parses to an equal value."""
    code, out, _ = run(capsys, "known", "--name", "parity", "--n", "5")
    assert mapping.parse_mapping(out) == mapping.named_mapping("parity", 5)

    tree_file = tmp_path / "t.tree"
    t = ttree.random_tree(6, 9)
    tree_file.write_text(ttree.format_tree(t))
    code, out, _ = run(capsys, "tree-matrix", "--tree", str(tree_file))
    assert gf2.parse_matrix(out) == ttree.tree_matrix(t)
    code, out, _ = run(capsys, "tree-mapping", "--tree", str(tree_file))
    assert mapping.parse_mapping(out) == ttree.canonical_mapping(t)
