"""The four workloads: seeded inputs, the job list, and each job's check.

A job is one user-level task, such as one Fock state, one dense check or
one equivalence decision.  It makes its library calls through the tracer
and returns its output; the job's check compares that output against an
expectation computed without the code being timed (see ``expect``).  Jobs
run one at a time, in list order, as a closed loop from one thread.  A job
may read the output of an earlier job of the same cycle from ``ctx``.

Every input is generated from the workload seed at set-up, before any
timing; library calls receive only those inputs.  Why each workload exists
is recorded in BENCHMARK.json.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import expect as E
from fermap import cli, encoding, equiv, gf2, mapping, oracle, pauli, ttree
from fermap.encoding import AffineEncoding
from fermap.gf2 import BinMatrix

EQUIV_BUDGET = 10**9  # the CLI's budget; the library default gives Unknown above n = 4
DENSE_TOL = 1e-9


@dataclass
class Job:
    id: str
    layer: str  # "<module>.<function>" charged when the output is wrong
    run: Callable  # (tracer, ctx) -> output
    check: Callable  # (output, ctx) -> None, or a message saying what is wrong
    digest: Callable = repr  # output -> canonical text for the output digest


@dataclass
class Workload:
    jobs: list[Job]
    appendix: list[Job] = field(default_factory=list)  # ROADMAP rows, traced runs only


def build(name: str, seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"fermap-perfbench:{name}:{seed}")
    make_jobs = JOB_LISTS[name]
    jobs, appendix = make_jobs(rng, workdir)
    ids = [j.id for j in jobs + appendix]
    if len(set(ids)) != len(ids):
        raise RuntimeError(f"duplicate job ids in workload {name}")
    return Workload(jobs, appendix)


# -- shared job makers -----------------------------------------------------------

def call_job(jid, layer, fn, args, check, row=None, nbytes=0, digest=repr):
    """A job that is one library call on fixed inputs."""
    return Job(jid, layer, lambda tr, ctx: tr.call(layer, fn, *args, row=row, nbytes=nbytes), check, digest)


def equals(expected, what="output"):
    def check(out, ctx):
        return None if out == expected else f"{what} differs from the expected value"

    return check


def is_none(out, ctx):
    return None if out is None else f"reported a defect: {out}"


def run_cli(argv):
    """fermap.cli.run in process; returns (exit code, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = cli.run(argv)
    return rc, out.getvalue()


def cli_job(jid, argv, expect_rc=0, check_text=None, save: Path | None = None, row=None):
    """`fermap <argv>` with its expected exit code; ``save`` keeps stdout as a file,
    like `fermap known ... > m.map`, for later jobs to read."""
    layer = f"cli.run.{argv[0]}"

    def check(out, ctx):
        rc, text = out
        if rc != expect_rc:
            return f"exit code {rc}, expected {expect_rc}"
        if save is not None:
            save.write_text(text, encoding="utf-8")
        return check_text(text, ctx) if check_text else None

    return Job(jid, layer, lambda tr, ctx: tr.call(layer, run_cli, argv, row=row), check)


def parses_to(expected):
    def check(text, ctx):
        got = mapping.parse_mapping(text)
        want = expected(ctx) if callable(expected) else expected
        return None if got == want else "emitted mapping differs from the expected one"

    return check


def report_says(*needles):
    def check(text, ctx):
        missing = [s for s in needles if s not in text.splitlines()]
        return f"report lacks {missing}" if missing else None

    return check


def computational(bits_fn, signs=(0,)):
    """Check a ProductState is phase in ``signs`` times |bits_fn(ctx)>."""

    def check(state, ctx):
        if state.phase not in signs or not state.is_computational():
            return f"state {state} is not a +/-1 computational basis state"
        want = bits_fn(ctx)
        return None if state.bits() == want else f"state {state} is not |{want:b}>"

    return check


def array_digest(psi) -> str:
    scaled = np.round(np.asarray(psi) * 1e9)
    ints = np.concatenate([scaled.real, scaled.imag]).astype(np.int64) + 0
    return hashlib.sha256(ints.tobytes()).hexdigest()


def vector_bytes(n: int, vectors: int) -> int:
    """Bytes of ``vectors`` complex 2^n-vectors, 16 B per amplitude."""
    return 16 * (1 << n) * vectors


# -- symbolic-large ------------------------------------------------------------------

def affine_jobs(tag, rng, rows, b, row_detect=None):
    """Every symbolic layer on one random affine encoding f -> |G(f xor b)>."""
    n = len(rows)
    inv = E.inverse(rows)
    g = BinMatrix(n, rows)
    enc = AffineEncoding(g, b)
    m = E.affine_majoranas(rows, b, inv)
    modes = rng.sample(range(n), 3)
    probes = [rng.getrandbits(n) for _ in range(3)]
    vecs = [rng.getrandbits(n) for _ in range(32)]
    p = f"{tag}.n{n}"
    jobs = [
        call_job(f"{p}.invert", "gf2.invert", gf2.invert, (g,), lambda out, ctx: None if out.rows == inv else "wrong inverse"),
        *(
            call_job(f"{p}.ufpr{i}", "gf2.ufpr_sets", gf2.ufpr_sets, (g, i), equals(E.ufpr(rows, inv, i), "U/F/P/R sets"))
            for i in modes
        ),
        call_job(
            f"{p}.mat_mul", "gf2.mat_mul", gf2.mat_mul, (g, BinMatrix(n, inv)),
            lambda out, ctx: None if out.rows == tuple(1 << i for i in range(n)) else "G G^-1 is not I",
        ),
        Job(
            f"{p}.mat_vec", "gf2.mat_vec",
            lambda tr, ctx: tr.batch("gf2.mat_vec", gf2.mat_vec, [(g, v) for v in vecs]),
            equals([E.mat_vec(rows, v) for v in vecs], "G v"),
        ),
        call_job(f"{p}.majoranas", "encoding.majoranas_of_affine", encoding.majoranas_of_affine, (enc,), equals(m, "Majorana pairs")),
        call_job(f"{p}.validate", "mapping.validate", mapping.validate, (m,), is_none),
        call_job(f"{p}.vacuum", "mapping.vacuum_state", mapping.vacuum_state, (m,), computational(lambda ctx: E.mat_vec(rows, b))),
        *(
            call_job(
                f"{p}.fock{k}", "mapping.fock_state", mapping.fock_state, (m, f),
                computational(lambda ctx, f=f: E.mat_vec(rows, f ^ b)),
            )
            for k, f in enumerate(probes)
        ),
        call_job(
            f"{p}.detect", "encoding.detect_classical", encoding.detect_classical, (m,),
            lambda out, ctx: None if isinstance(out, AffineEncoding) and out.g.rows == rows and out.b == b
            else f"detected {out}, not the generating (G, b)",
            row=row_detect,
        ),
        call_job(
            f"{p}.tableau", "encoding.tableau_of_affine", encoding.tableau_of_affine, (enc,),
            lambda out, ctx: None if (out.columns, out.signs) == E.tableau(rows, inv, b) else "wrong tableau",
        ),
        call_job(
            f"{p}.to_linear", "encoding.affine_to_linear", encoding.affine_to_linear, (m, enc),
            equals((E.affine_majoranas(rows, 0, inv), E.sign_flips(n, b)), "linear mapping and sign flips"),
        ),
    ]
    return jobs


def symbolic_large(rng, work):
    jobs = []
    for k, n in enumerate((64, 64, 96)):
        rows = E.random_invertible(rng, n)
        b = rng.getrandbits(n) | 1
        jobs += affine_jobs(f"affine{k}", rng, rows, b, "item1.encoding.detect_classical.n64" if n == 64 else None)

    prow = E.parity_rows(256)
    pmap = E.affine_majoranas(prow, 0)
    jobs += [
        call_job(
            "parity.n256.majoranas", "encoding.majoranas_of_affine", encoding.majoranas_of_affine,
            (AffineEncoding(BinMatrix(256, prow), 0),), equals(pmap, "Majorana pairs"),
            row="item1.encoding.majoranas_of_affine.n256",
        ),
        call_job("parity.n256.validate", "mapping.validate", mapping.validate, (pmap,), is_none),
    ]

    root, children = E.random_tree(rng, 1000)
    tree = ttree.build_tree(1000, root, children)
    jobs += tree_jobs("tree.n1000", tree, row_matrix="item1.ttree.tree_matrix.n1000")
    t = "tree.n1000"
    jobs += [
        Job(f"{t}.validate", "mapping.validate",
            lambda tr, ctx: tr.call("mapping.validate", mapping.validate, ctx[f"{t}.canonical"]), is_none),
        Job(f"{t}.format", "mapping.format_mapping",
            lambda tr, ctx: tr.call("mapping.format_mapping", mapping.format_mapping, ctx[f"{t}.canonical"]),
            lambda out, ctx: None if out.startswith("n=1000\n") and out.count("\n") == 1001 else "bad mapping text"),
        Job(f"{t}.parse", "mapping.parse_mapping",
            lambda tr, ctx: tr.call("mapping.parse_mapping", mapping.parse_mapping, ctx[f"{t}.format"]),
            lambda out, ctx: None if out == ctx[f"{t}.canonical"] else "text round trip changed the mapping"),
    ]

    bk = E.affine_majoranas(E.bravyi_kitaev_rows(128), 0)
    bk_file = work / "bk128.map"
    jobs += [
        cli_job("cli.known.bk128", ["known", "--name", "bk", "--n", "128"], check_text=parses_to(bk), save=bk_file),
        cli_job("cli.verify.bk128", ["verify", "--mapping", str(bk_file)],
                check_text=report_says("valid: True", "classical: True", "linear: True", "result: pass")),
    ]

    rows = E.random_invertible(rng, 128)
    b = rng.getrandbits(128) | 1
    m128 = E.affine_majoranas(rows, b)
    appendix = [
        call_job(
            "item1.majoranas.n128", "encoding.majoranas_of_affine", encoding.majoranas_of_affine,
            (AffineEncoding(BinMatrix(128, rows), b),), equals(m128, "Majorana pairs"),
            row="item1.encoding.majoranas_of_affine.n128",
        ),
        call_job(
            "item1.detect.n128", "encoding.detect_classical", encoding.detect_classical, (m128,),
            lambda out, ctx: None if isinstance(out, AffineEncoding) and out.g.rows == rows and out.b == b
            else "did not recover the generating (G, b)",
            row="item1.encoding.detect_classical.n128",
        ),
    ]
    return jobs, appendix


def tree_jobs(t, tree, row_matrix=None):
    """Canonical mapping and G_T of a tree; later jobs read them from ctx."""
    n = tree.n

    def canonical_ok(m, ctx):
        if m.n != n or any(not E.is_path_string(op, tree) for op in m.gammas):
            return "an operator is not a root-to-leaf path string"
        if any((a.phase, b.phase) != (0, 1) for a, b in m.pairs):
            return "pairs are not (hat_2i, i hat_2i+1)"
        if len({(op.x, op.z) for op in m.gammas}) != 2 * n:
            return "path strings repeat"
        return None

    def matrix_ok(g, ctx):
        if E.inverse(g.rows) is None:
            return "G_T is singular"
        cm = ctx[f"{t}.canonical"]
        if any(E.column(g.rows, j) != cm.pairs[j][0].x for j in range(n)):
            return "a column of G_T is not the X/Y support of G_2j"
        return None

    return [
        call_job(f"{t}.canonical", "ttree.canonical_mapping", ttree.canonical_mapping, (tree,), canonical_ok),
        call_job(f"{t}.matrix", "ttree.tree_matrix", ttree.tree_matrix, (tree,), matrix_ok, row=row_matrix),
    ]


# -- symbolic-sweep -------------------------------------------------------------------

TREES_PER_N = 10
PAULI_BATCHES = 8
PAULI_BATCH = 64


def random_chars(rng, n, alphabet=E.STATE_CHARS):
    return "".join(rng.choice(alphabet) for _ in range(n))


def sweep_tree_jobs(t, rng, n, tree, text):
    v_chars = random_chars(rng, n)
    v = pauli.state_from_chars(v_chars)
    target = pauli.state_from_chars(random_chars(rng, n))
    braided_probes = [rng.randrange(1 << n) for _ in range(3)]
    c = f"{t}.canonical"

    def from_ctx(layer, fn, key, *extra):
        return lambda tr, ctx: tr.call(layer, fn, ctx[key], *extra)

    def paths_ok(m, ctx):
        return None if all(E.is_path_string(op, tree) for op in m.gammas) else "an operator is not a path string"

    jobs = tree_jobs(t, tree)
    jobs += [
        Job(f"{t}.fock{f}", "mapping.fock_state", from_ctx("mapping.fock_state", mapping.fock_state, c, f),
            computational(lambda ctx, f=f: E.mat_vec(ctx[f"{t}.matrix"].rows, f)))
        for f in range(1 << n)
    ]
    jobs += [
        call_job(f"{t}.braided", "ttree.braided_real_pairing", ttree.braided_real_pairing, (tree,), paths_ok),
        Job(f"{t}.braided.validate", "mapping.validate",
            from_ctx("mapping.validate", mapping.validate, f"{t}.braided"), is_none),
        *(
            Job(f"{t}.braided.fock{k}", "mapping.fock_state",
                from_ctx("mapping.fock_state", mapping.fock_state, f"{t}.braided", f),
                lambda state, ctx: None if state.phase in (0, 2) and state.is_computational()
                else f"Fock state {state} is not real")
            for k, f in enumerate(braided_probes)
        ),
        call_job(f"{t}.pfv", "ttree.pair_for_vacuum", ttree.pair_for_vacuum, (tree, v), paths_ok),
        Job(f"{t}.pfv.vacuum", "mapping.vacuum_state",
            from_ctx("mapping.vacuum_state", mapping.vacuum_state, f"{t}.pfv"), equals(v, "vacuum")),
        Job(f"{t}.pfv.validate", "mapping.validate",
            from_ctx("mapping.validate", mapping.validate, f"{t}.pfv"), is_none),
        Job(f"{t}.revacuum", "ttree.revacuum",
            lambda tr, ctx: tr.call("ttree.revacuum", ttree.revacuum, tree, ctx[c], target),
            lambda out, ctx: None if out[0].n == n and out[1].n == n else "wrong sizes"),
        Job(f"{t}.revacuum.vacuum", "mapping.vacuum_state",
            lambda tr, ctx: tr.call("mapping.vacuum_state", mapping.vacuum_state, ctx[f"{t}.revacuum"][1]),
            equals(target, "vacuum after re-vacuuming")),
        call_job(f"{t}.format_tree", "ttree.format_tree", ttree.format_tree, (tree,), equals(text, "tree text")),
        call_job(f"{t}.parse_tree", "ttree.parse_tree", ttree.parse_tree, (text,), equals(tree, "parsed tree")),
        Job(f"{t}.format", "mapping.format_mapping", from_ctx("mapping.format_mapping", mapping.format_mapping, c),
            lambda out, ctx: None if out.startswith(f"n={n}\n") and out.count("\n") == n + 1 else "bad mapping text"),
        Job(f"{t}.parse", "mapping.parse_mapping", from_ctx("mapping.parse_mapping", mapping.parse_mapping, f"{t}.format"),
            lambda out, ctx: None if out == ctx[c] else "text round trip changed the mapping"),
    ]
    jobs += car_jobs(t, rng, n, c)
    return jobs, v_chars


def car_jobs(t, rng, n, key):
    """{a_i, a_i^+} = 1 and, for n > 1, {a_i^+, a_j} = 0 through ladder transforms."""
    i = rng.randrange(n)
    terms = [("ii", [(i, False), (i, True)], [(i, True), (i, False)], True)]
    if n > 1:
        j = rng.choice([k for k in range(n) if k != i])
        terms.append(("ij", [(i, True), (j, False)], [(j, False), (i, True)], False))
    jobs = []
    for tag, first, second, is_identity in terms:
        def anticommutator_ok(out, ctx, tag=tag, is_identity=is_identity):
            total = ctx[f"{t}.car.{tag}.0"] + out
            want = mapping.pauli_sum_identity(n) if is_identity else mapping.PauliSum(n, ())
            return None if total == want else f"anticommutator {tag} is {total}"

        for k, ops in enumerate((first, second)):
            jobs.append(Job(
                f"{t}.car.{tag}.{k}", "mapping.transform_ladder_term",
                lambda tr, ctx, ops=ops: tr.call("mapping.transform_ladder_term", mapping.transform_ladder_term, ctx[key], ops),
                (lambda out, ctx: None) if k == 0 else anticommutator_ok,
            ))
    return jobs


def pauli_jobs(rng):
    jobs = []
    for k in range(PAULI_BATCHES):
        ns = [rng.randrange(1, 9) for _ in range(PAULI_BATCH)]
        ps = [E.random_pauli(rng, n) for n in ns]
        qs = [E.random_pauli(rng, n) for n in ns]
        herm = [E.random_pauli(rng, n, hermitian=True) for n in ns]
        states = [pauli.state_from_chars(random_chars(rng, n)) for n in ns]
        texts = [E.pauli_text(p) for p in ps]

        def products_ok(out, ctx, ps=ps, qs=qs):
            for p, q, r in zip(ps, qs, out):
                if (r.n, r.x, r.z, r.phase) != (p.n, p.x ^ q.x, p.z ^ q.z, E.product_phase(p, q)):
                    return f"{p} * {q} gave {r}"
            return None

        def involution_ok(out, ctx, herm=herm, states=states):
            # a Hermitian Pauli squares to I, so applying it twice restores the state
            for p, s, r in zip(herm, states, out):
                if pauli.apply_to_product_state(p, r) != s:
                    return f"{p} applied twice does not restore {s}"
            return None

        jobs += [
            Job(f"pauli.b{k}.multiply", "pauli.multiply",
                lambda tr, ctx, a=list(zip(ps, qs)): tr.batch("pauli.multiply", pauli.multiply, a), products_ok),
            Job(f"pauli.b{k}.anticommutes", "pauli.anticommutes",
                lambda tr, ctx, a=list(zip(ps, qs)): tr.batch("pauli.anticommutes", pauli.anticommutes, a),
                equals([E.anticommute(p, q) for p, q in zip(ps, qs)], "anticommutation")),
            Job(f"pauli.b{k}.apply", "pauli.apply_to_product_state",
                lambda tr, ctx, a=list(zip(herm, states)): tr.batch("pauli.apply_to_product_state", pauli.apply_to_product_state, a),
                involution_ok),
            Job(f"pauli.b{k}.format", "pauli.format_pauli",
                lambda tr, ctx, a=[(p,) for p in ps]: tr.batch("pauli.format_pauli", pauli.format_pauli, a),
                equals(texts, "Pauli text")),
            Job(f"pauli.b{k}.parse", "pauli.parse_pauli",
                lambda tr, ctx, a=list(zip(texts, ns)): tr.batch("pauli.parse_pauli", pauli.parse_pauli, a),
                equals(ps, "parsed Pauli strings")),
        ]
    return jobs


def witness_replays(m1, m2):
    def check(text, ctx):
        lines = text.splitlines()
        if not lines or lines[0] != "Equivalent":
            return f"verdict {lines[:1]}"
        ops = equiv.parse_ops("\n".join(lines[1:]))
        return None if equiv.apply_symmetries(m1, ops) == m2 else "witness does not replay to the target"

    return check


def symbolic_sweep(rng, work):
    jobs = []
    cli_trees = {}
    for n in range(1, 9):
        for k in range(TREES_PER_N):
            root, children = E.random_tree(rng, n)
            tree = ttree.build_tree(n, root, children)
            text = E.tree_text(root, children)
            t = f"tree.n{n}.t{k}"
            tree_list, v_chars = sweep_tree_jobs(t, rng, n, tree, text)
            jobs += tree_list
            if k == 0 and n >= 4:
                path = work / f"tree_n{n}.tree"
                path.write_text(text + "\n", encoding="utf-8")
                cli_trees[t] = (path, v_chars)

    for n in range(2, 9):
        for k in range(2):
            rows = E.random_invertible(rng, n)
            b = rng.getrandbits(n) | 1
            m = E.affine_majoranas(rows, b)
            jobs.append(call_job(
                f"affine.n{n}.{k}.detect", "encoding.detect_classical", encoding.detect_classical, (m,),
                lambda out, ctx, rows=rows, b=b: None
                if isinstance(out, AffineEncoding) and out.g.rows == rows and out.b == b
                else f"detected {out}, not the generating (G, b)",
            ))

    jobs += pauli_jobs(rng)

    expected_census = {
        equiv.TwoModeTemplate.JW: 144,
        equiv.TwoModeTemplate.BK: 288,
        equiv.TwoModeTemplate.PRODUCT_BREAKING: 288,
    }
    jobs.append(Job(
        "census", "equiv.two_mode_census",
        lambda tr, ctx: tr.call("equiv.two_mode_census", equiv.two_mode_census),
        lambda out, ctx: None if out.counts == expected_census and out.total == 720 else f"census {out}",
    ))

    for t, (path, v_chars) in cli_trees.items():
        jobs += [
            cli_job(f"cli.{t}.tree-mapping", ["tree-mapping", "--tree", str(path)],
                    check_text=parses_to(lambda ctx, t=t: ctx[f"{t}.canonical"])),
            cli_job(f"cli.{t}.tree-mapping-real", ["tree-mapping", "--tree", str(path), "--pairing", "real"],
                    check_text=parses_to(lambda ctx, t=t: ctx[f"{t}.braided"])),
            cli_job(f"cli.{t}.tree-mapping-legacy",
                    ["tree-mapping", "--tree", str(path), "--pairing", "legacy", f"--vacuum={v_chars}"],
                    check_text=parses_to(lambda ctx, t=t: ctx[f"{t}.pfv"])),
            cli_job(f"cli.{t}.tree-matrix", ["tree-matrix", "--tree", str(path)],
                    check_text=lambda text, ctx, t=t: None
                    if gf2.parse_matrix(text).rows == ctx[f"{t}.matrix"].rows else "emitted matrix differs from G_T"),
        ]

    jw5 = work / "jw5.map"
    for name, n, rows in (("jw", 5, tuple(1 << i for i in range(5))), ("bk", 4, E.bravyi_kitaev_rows(4)),
                          ("parity", 6, E.parity_rows(6))):
        jobs.append(cli_job(f"cli.known.{name}{n}", ["known", "--name", name, "--n", str(n)],
                            check_text=parses_to(E.affine_majoranas(rows, 0)),
                            save=jw5 if name == "jw" else None))
    jobs.append(cli_job("cli.known.sierpinski4", ["known", "--name", "sierpinski", "--n", "4"],
                        check_text=lambda text, ctx: None if mapping.validate(mapping.parse_mapping(text)) is None
                        else "emitted mapping is not valid"))
    jobs.append(cli_job("cli.verify.jw5", ["verify", "--mapping", str(jw5)],
                        check_text=report_says("valid: True", "classical: True", "result: pass")))
    term = f"a+ {rng.randrange(5)} a {rng.randrange(5)}"
    jobs.append(cli_job("cli.transform.jw5", ["transform", "--mapping", str(jw5), "--term", term],
                        check_text=lambda text, ctx: None if text.strip() and all(
                            line == "0" or " * " in line for line in text.splitlines()) else "bad transform output"))
    for k in range(2):
        root, children = E.random_tree(rng, 3)
        m1 = ttree.canonical_mapping(ttree.build_tree(3, root, children))
        m2 = equiv.apply_symmetries(m1, random_word(rng, 3, random_perm(rng, 3)))
        a, b = work / f"equiv{k}_a.map", work / f"equiv{k}_b.map"
        a.write_text(mapping.format_mapping(m1), encoding="utf-8")
        b.write_text(mapping.format_mapping(m2), encoding="utf-8")
        jobs.append(cli_job(f"cli.equivalent.{k}", ["equivalent", "--a", str(a), "--b", str(b)],
                            check_text=witness_replays(m1, m2)))
    return jobs, []


# -- oracle-dense -----------------------------------------------------------------------

def oracle_jobs(tag, m, vacuum_chars, linear_g=None, enc=None, rows=None, dense_vacuum=True):
    """Dense checks of one valid mapping; every check must report no defect."""
    n = m.n
    r = rows or {}
    jobs = [
        call_job(f"{tag}.check_car", "oracle.check_car", oracle.check_car, (m,), is_none,
                 row=r.get("check_car"), nbytes=vector_bytes(n, 2 * n)),
        call_job(f"{tag}.fock_basis", "oracle.verify_fock_basis", oracle.verify_fock_basis, (m,), is_none,
                 row=r.get("verify_fock_basis"), nbytes=vector_bytes(n, (1 << n) * (n + 1))),
    ]
    if linear_g is not None:
        jobs.append(call_job(f"{tag}.linear", "oracle.verify_linear", oracle.verify_linear, (m, linear_g), is_none,
                             nbytes=vector_bytes(n, 1 << n)))
    if enc is not None:
        jobs.append(call_job(f"{tag}.affine", "oracle.verify_affine", oracle.verify_affine, (m, enc), is_none,
                             nbytes=vector_bytes(n, 1 << n)))
    if dense_vacuum:
        want = E.dense_product(vacuum_chars)
        jobs.append(call_job(
            f"{tag}.dense_vacuum", "oracle.dense_vacuum", oracle.dense_vacuum, (m,),
            lambda psi, ctx: None if abs(abs(np.vdot(want, psi)) - 1.0) <= DENSE_TOL
            else "dense vacuum is not the expected product state",
            digest=array_digest,
        ))
    return jobs


def oracle_dense(rng, work):
    jobs = []
    for name, rows in (("jw", tuple(1 << i for i in range(8))), ("parity", E.parity_rows(8)),
                       ("bk", E.bravyi_kitaev_rows(8))):
        rowmap = {"check_car": "item1.oracle.check_car.jw8"} if name == "jw" else None
        jobs += oracle_jobs(f"{name}.n8", E.affine_majoranas(rows, 0), "0" * 8,
                            linear_g=BinMatrix(8, rows), rows=rowmap)

    rows = E.random_invertible(rng, 8)
    b = rng.getrandbits(8) | 1
    jobs += oracle_jobs("affine.n8", E.affine_majoranas(rows, b), E.basis_chars(8, E.mat_vec(rows, b)),
                        enc=AffineEncoding(BinMatrix(8, rows), b))

    def tree(n):
        root, children = E.random_tree(rng, n)
        return ttree.build_tree(n, root, children)

    t = tree(8)
    jobs += oracle_jobs("tree.n8", ttree.canonical_mapping(t), "0" * 8, linear_g=ttree.tree_matrix(t))
    jobs += oracle_jobs("braided.n8", ttree.braided_real_pairing(tree(8)), "0" * 8)
    v_chars = random_chars(rng, 8, E.XY_STATE_CHARS)
    jobs += oracle_jobs("pfv.n8", ttree.pair_for_vacuum(tree(8), pauli.state_from_chars(v_chars)), v_chars)
    jobs += oracle_jobs("braided.n9", ttree.braided_real_pairing(tree(9)), "0" * 9, dense_vacuum=False)
    # n = 10 runs inside `verify --oracle` below; the direct calls that give
    # ROADMAP's n = 10 rows their own spans run once, after the traced half
    ident10 = tuple(1 << i for i in range(10))
    appendix = oracle_jobs("jw.n10", E.affine_majoranas(ident10, 0), "0" * 10, dense_vacuum=False,
                           rows={"check_car": "item1.oracle.check_car.jw10",
                                 "verify_fock_basis": "item1.oracle.verify_fock_basis.jw10"})

    passes = report_says("valid: True", "classical: True", "result: pass")
    for name, n, want in (("jw", 10, E.affine_majoranas(ident10, 0)), ("sierpinski", 13, None),
                          ("sierpinski", 40, None)):
        path = work / f"{name}{n}.map"
        check_known = parses_to(want) if want is not None else (
            lambda text, ctx, n=n: None if mapping.parse_mapping(text).n == n else "wrong mode count")
        row = f"item1.cli.verify_oracle.{name}{n}" if n <= 13 else None
        jobs += [
            cli_job(f"cli.known.{name}{n}", ["known", "--name", name, "--n", str(n)],
                    check_text=check_known, save=path),
            # sierpinski n = 40 is past the dense oracle's reach; the symbolic
            # verdict still passes, so the expected exit code is 0
            cli_job(f"cli.verify_oracle.{name}{n}", ["verify", "--mapping", str(path), "--oracle"],
                    check_text=passes, row=row),
        ]
    return jobs, appendix


# -- equiv-search ------------------------------------------------------------------------

_LETTERS = ("X", "Y", "Z")


def random_perm(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(perm)


def random_clifford_image(rng):
    letters = list(_LETTERS)
    rng.shuffle(letters)
    fixed = sum(a == b for a, b in zip(_LETTERS, letters))
    want = -1 if fixed == 1 else 1  # transpositions need an odd number of minus signs
    s1, s2 = rng.choice((1, -1)), rng.choice((1, -1))
    return tuple(zip(letters, (s1, s2, want * s1 * s2)))


def random_word(rng, n, sigma):
    """A shuffled word using all five symmetry kinds; its net qubit permutation is sigma."""
    ops = [
        equiv.QubitSwap(sigma),
        equiv.LocalBasisChange(rng.randrange(n), random_clifford_image(rng)),
        equiv.LocalBasisChange(rng.randrange(n), random_clifford_image(rng)),
        equiv.PairBraid(rng.randrange(n), rng.choice((1, -1))),
        equiv.SignChange(rng.randrange(2 * n)),
        equiv.FermionSwap(random_perm(rng, n)),
    ]
    rng.shuffle(ops)
    return tuple(ops)


def stratified_perms(rng, n, k):
    """k qubit permutations, one from each of k equal slices of itertools order.

    The search meets its witness at a cost proportional to the permutation's
    place in that order, so drawing one per slice keeps each cycle's mix of
    cheap and dear decisions the same from seed to seed.
    """
    perms = list(itertools.permutations(range(n)))
    size = len(perms)
    return [perms[(s * size) // k + rng.randrange(max(1, ((s + 1) * size) // k - (s * size) // k))] for s in range(k)]


def antithetic_perms(rng, n):
    """Two permutations at mirrored places in itertools order, costs summing to one full search."""
    perms = list(itertools.permutations(range(n)))
    i = rng.randrange(len(perms) // 2)
    return [perms[i], perms[len(perms) - 1 - i]]


def decide_job(jid, m, word, row=None):
    """Decide m against word(m); the witness must replay to the target exactly."""

    def run(tr, ctx):
        target = tr.call("equiv.apply_symmetries", equiv.apply_symmetries, m, word)
        same = tr.call("equiv.fingerprint", equiv.fingerprint, m) == tr.call("equiv.fingerprint", equiv.fingerprint, target)
        res = tr.call("equiv.equivalent", equiv.equivalent, m, target, budget=EQUIV_BUDGET, row=row)
        replay = None
        if isinstance(res, equiv.Equivalent):
            replay = tr.call("equiv.apply_symmetries", equiv.apply_symmetries, m, res.witness)
            tr.count("equiv.witness_ops", len(res.witness))
        tr.count("equiv.decided", isinstance(res, (equiv.Equivalent, equiv.Inequivalent)))
        return same, res, replay == target

    def check(out, ctx):
        same, res, replays = out
        if not same:
            return "fingerprints of equivalent mappings differ"
        if not isinstance(res, equiv.Equivalent):
            return f"verdict {res} for an equivalent pair"
        return None if replays else "witness does not replay to the target"

    return Job(jid, "equiv.equivalent", run, check)


def distinct_job(jid, m1, m2, word):
    """A pair whose pair-weight multisets differ: inequivalent, and the
    fingerprint must say so."""

    def weights(m):
        return sorted(tuple(sorted(((a.x | a.z).bit_count(), (b.x | b.z).bit_count()))) for a, b in m.pairs)

    if weights(m1) == weights(m2):
        raise RuntimeError(f"{jid}: pair is not weight-distinct")

    def run(tr, ctx):
        target = tr.call("equiv.apply_symmetries", equiv.apply_symmetries, m2, word)
        same = tr.call("equiv.fingerprint", equiv.fingerprint, m1) == tr.call("equiv.fingerprint", equiv.fingerprint, target)
        res = tr.call("equiv.equivalent", equiv.equivalent, m1, target, budget=EQUIV_BUDGET)
        tr.count("equiv.decided", isinstance(res, (equiv.Equivalent, equiv.Inequivalent)))
        return same, res

    def check(out, ctx):
        same, res = out
        if same:
            return "fingerprints of inequivalent mappings agree"
        return None if isinstance(res, equiv.Inequivalent) else f"verdict {res} for an inequivalent pair"

    return Job(jid, "equiv.equivalent", run, check)


def equiv_search(rng, work):
    def linear(rows):
        return E.affine_majoranas(rows, 0)

    def tree_mapping(n):
        root, children = E.random_tree(rng, n)
        return ttree.canonical_mapping(ttree.build_tree(n, root, children))

    def families(n):
        out = {"jw": lambda: linear(tuple(1 << i for i in range(n))), "parity": lambda: linear(E.parity_rows(n))}
        if n & (n - 1) == 0:
            out["bk"] = lambda: linear(E.bravyi_kitaev_rows(n))
        out["tree"] = lambda: tree_mapping(n)
        return out

    jobs = []
    for n, per_family in ((3, 2), (4, 10)):
        for name, make in families(n).items():
            for k, sigma in enumerate(stratified_perms(rng, n, per_family)):
                jobs.append(decide_job(f"n{n}.{name}.{k}", make(), random_word(rng, n, sigma)))

    jw5 = linear(tuple(1 << i for i in range(5)))
    jobs.append(decide_job("n5.jw.reversed", jw5, (equiv.QubitSwap((4, 3, 2, 1, 0)),),
                           row="item1.equiv.equivalent.jw_rev5"))
    for name in ("parity", "tree"):
        m = families(5)[name]()
        for k, sigma in enumerate(antithetic_perms(rng, 5)):
            jobs.append(decide_job(f"n5.{name}.{k}", m, random_word(rng, 5, sigma)))

    for n, a, b in ((3, "jw", "parity"), (4, "jw", "bk"), (4, "jw", "parity"), (4, "bk", "parity"), (5, "jw", "parity")):
        fam = families(n)
        jobs.append(distinct_job(f"n{n}.{a}-{b}", fam[a](), fam[b](), random_word(rng, n, random_perm(rng, n))))
    return jobs, []


JOB_LISTS = {
    "symbolic-large": symbolic_large,
    "symbolic-sweep": symbolic_sweep,
    "oracle-dense": oracle_dense,
    "equiv-search": equiv_search,
}
