"""Command-line front-end: mapping emission, verification, classification.

Exit codes: 0 success, 1 verification failure, 2 input error.  The
classical-encoding verdict of `verify` is exact; for 10 < n <= 14,
`verify --oracle` runs a sampled oracle sweep with the fixed seed 0.
Pass --json on report-producing subcommands for structured output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import encoding, equiv, gf2, mapping as fqm, oracle, pauli, ttree


class InputError(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _load_mapping(path: str) -> fqm.FermionQubitMapping:
    try:
        return fqm.parse_mapping(_read(path))
    except ValueError as exc:
        raise InputError(f"bad mapping file {path}: {exc}") from None


def _load_tree(path: str) -> ttree.TernaryTree:
    try:
        return ttree.parse_tree(_read(path))
    except ValueError as exc:
        raise InputError(f"bad tree file {path}: {exc}") from None


# -- subcommands ----------------------------------------------------------------

_SIERPINSKI_DEPTH = {1: 1, 4: 2, 13: 3, 40: 4}


def _sierpinski(n: int) -> fqm.FermionQubitMapping:
    depth = _SIERPINSKI_DEPTH.get(n)
    if depth is None:
        raise ValueError("sierpinski sizes are 1, 4, 13, 40")
    return ttree.canonical_mapping(ttree.complete_tree(depth))


_KNOWN = {
    "jw": functools.partial(fqm.named_mapping, "jordan_wigner"),
    "bk": functools.partial(fqm.named_mapping, "bravyi_kitaev"),
    "parity": functools.partial(fqm.named_mapping, "parity"),
    "sierpinski": _sierpinski,
}


def cmd_known(args) -> int:
    try:
        m = _KNOWN[args.name](args.n)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    sys.stdout.write(fqm.format_mapping(m))
    return 0


def cmd_tree_mapping(args) -> int:
    t = _load_tree(args.tree)
    if args.pairing == "canonical":
        if args.vacuum is not None:
            raise InputError("--vacuum only applies to the legacy pairing")
        m = ttree.canonical_mapping(t)
    elif args.pairing == "real":
        if args.vacuum is not None:
            raise InputError("--vacuum only applies to the legacy pairing")
        m = ttree.braided_real_pairing(t)
    else:  # legacy
        chars = args.vacuum if args.vacuum is not None else "0" * t.n
        try:
            v = pauli.state_from_chars(chars)
        except ValueError as exc:
            raise InputError(str(exc)) from None
        if v.n != t.n:
            raise InputError(f"vacuum has {v.n} qubits, tree has {t.n}")
        m = ttree.pair_for_vacuum(t, v)
    sys.stdout.write(fqm.format_mapping(m))
    return 0


def cmd_tree_matrix(args) -> int:
    t = _load_tree(args.tree)
    sys.stdout.write(gf2.format_matrix(ttree.tree_matrix(t)))
    return 0


def cmd_verify(args) -> int:
    m = _load_mapping(args.mapping)
    report: dict[str, object] = {"n": m.n}
    bad = fqm.validate(m)
    report["valid"] = bad is None
    if bad is not None:
        report["violation"] = str(bad)
        _emit_report(args, report, ok=False)
        return 1
    det = encoding.detect_classical(m)
    if isinstance(det, encoding.NotClassical):
        report["classical"] = False
        report["reason"] = str(det)
    else:
        report["classical"] = True
        report["linear"] = det.is_linear()
        report["offset"] = _bits(det.b, m.n)
        report["matrix"] = gf2.format_matrix(det.g).splitlines()
    ok = True
    if args.oracle:
        if m.n <= oracle.EXHAUSTIVE_LIMIT:
            car = oracle.check_car(m)
            report["oracle_car"] = str(car) if car else "ok"
            fock = oracle.verify_fock_basis(m)
            report["oracle_fock"] = str(fock) if fock else "ok"
            ok = car is None and fock is None
            if ok and isinstance(det, encoding.AffineEncoding) and det.is_linear():
                lin = oracle.verify_linear(m, det.g)
                report["oracle_linear"] = str(lin) if lin else "ok (exhaustive)"
                ok = lin is None
        elif m.n > oracle.DENSE_LIMIT:
            report["oracle_linear"] = f"skipped: n > {oracle.DENSE_LIMIT}"
        elif isinstance(det, encoding.AffineEncoding) and det.is_linear():
            lin = oracle.verify_linear(m, det.g, sample=4096)
            report["oracle_linear"] = (
                str(lin) if lin else "ok (sampled 4096 occupation vectors, all +1 phase)"
            )
            ok = lin is None
        else:
            report["oracle_linear"] = f"skipped: n > {oracle.EXHAUSTIVE_LIMIT} and not a linear encoding"
    _emit_report(args, report, ok=ok)
    return 0 if ok else 1


def cmd_weights(args) -> int:
    m = _load_mapping(args.mapping)
    ws = fqm.weight_stats(m)
    report = {
        "n": m.n,
        "max_weight": ws.max_weight,
        "mean_weight": str(ws.mean_weight),
        "mean_weight_float": float(ws.mean_weight),
    }
    _emit_report(args, report, ok=True)
    return 0


def cmd_classify2(args) -> int:
    m = _load_mapping(args.mapping)
    if m.n != 2:
        raise InputError(f"classify2 needs a two-mode mapping, got n={m.n}")
    try:
        template = equiv.classify_two_mode(m)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    _emit_report(args, {"template": template.value}, ok=True)
    return 0


def cmd_equivalent(args) -> int:
    m1 = _load_mapping(args.a)
    m2 = _load_mapping(args.b)
    for path, m in ((args.a, m1), (args.b, m2)):
        if (bad := fqm.validate(m)) is not None:
            raise InputError(f"invalid mapping {path}: {bad}")
    if m1.n != m2.n:
        raise InputError("mappings have different mode counts")
    res = equiv.equivalent(m1, m2)
    if isinstance(res, equiv.Equivalent):
        sys.stdout.write("Equivalent\n")
        sys.stdout.write(equiv.format_ops(res.witness))
        return 0
    if isinstance(res, equiv.Inequivalent):
        sys.stdout.write(f"Inequivalent: {res.reason}\n")
        return 1
    sys.stdout.write(f"Unknown: {res.reason}\n")
    return 1


def cmd_transform(args) -> int:
    m = _load_mapping(args.mapping)
    ops = _parse_term(args.term, m.n)
    total = fqm.transform_ladder_term(m, ops)
    if total.is_zero():
        sys.stdout.write("0\n")
        return 0
    for (re, im), op in total.terms:
        word = pauli.format_pauli(op).removeprefix("+1 ")
        sys.stdout.write(f"{_coeff_str(re, im)} * {word}\n")
    return 0


def cmd_dot(args) -> int:
    m = _load_mapping(args.mapping)
    sys.stdout.write(render_dot(m))
    return 0


def _parse_term(text: str, n: int) -> list[tuple[int, bool]]:
    """Parse ladder terms like \"a† 3 a 1\" (a+ and ad also accepted)."""
    tokens = text.split()
    if len(tokens) % 2:
        raise InputError(f"term must alternate operator and mode: {text!r}")
    ops = []
    for k in range(0, len(tokens), 2):
        op, mode_tok = tokens[k], tokens[k + 1]
        if op in ("a†", "a+", "ad"):
            dagger = True
        elif op == "a":
            dagger = False
        else:
            raise InputError(f"bad ladder operator {op!r}")
        if not pauli.is_index(mode_tok):
            raise InputError(f"bad mode index {mode_tok!r}")
        mode = int(mode_tok)
        if not 0 <= mode < n:
            raise InputError(f"mode {mode} out of range for n={n}")
        ops.append((mode, dagger))
    return ops


def _coeff_str(re: Fraction, im: Fraction) -> str:
    if im == 0:
        return str(re)
    if re == 0:
        return f"({im})i"
    return f"({re}{'+' if im > 0 else ''}{im}i)"


def _bits(v: int, n: int) -> str:
    return "".join(str((v >> j) & 1) for j in range(n))


def render_dot(m: fqm.FermionQubitMapping) -> str:
    """DOT rendering of the mapping diagram.

    Qubits are circle nodes; each operator is a terminal box chained
    through its support with edges labelled by the local letters; dashed
    arcs join the two operators of each mode.
    """
    lines = ["digraph mapping {", "  rankdir=LR;"]
    for q in range(m.n):
        lines.append(f'  q{q} [shape=circle, label="q{q}"];')
    gammas = m.gammas
    for i, g in enumerate(gammas):
        sign = pauli.SIGN_TOKENS[g.display_power()]
        lines.append(f'  g{i} [shape=box, label="G{i} [{sign}]"];')
        prev = f"g{i}"
        for q in g.support:
            lines.append(f'  {prev} -> q{q} [label="{g.letter(q)}"];')
            prev = f"q{q}"
    for mode in range(m.n):
        lines.append(
            f'  g{2 * mode} -> g{2 * mode + 1} [style=dashed, label="mode {mode}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _emit_report(args, report: dict, ok: bool) -> None:
    if getattr(args, "json", False):
        payload = dict(report)
        payload["ok"] = ok
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
        return
    for key, value in report.items():
        if isinstance(value, list):
            sys.stdout.write(f"{key}:\n")
            for item in value:
                sys.stdout.write(f"  {item}\n")
        else:
            sys.stdout.write(f"{key}: {value}\n")
    sys.stdout.write("result: " + ("pass" if ok else "FAIL") + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermap", description="fermion-to-qubit mapping toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("known", help="emit a named mapping")
    p.add_argument("--name", required=True, choices=list(_KNOWN))
    p.add_argument("--n", required=True, type=int)
    p.set_defaults(func=cmd_known)

    p = sub.add_parser("tree-mapping", help="emit a tree-based mapping")
    p.add_argument("--tree", required=True)
    p.add_argument("--vacuum", default=None, help="one char per qubit from 01+-rl")
    p.add_argument(
        "--pairing", default="canonical", choices=["canonical", "legacy", "real"]
    )
    p.set_defaults(func=cmd_tree_mapping)

    p = sub.add_parser("tree-matrix", help="emit the encoding matrix of a tree")
    p.add_argument("--tree", required=True)
    p.set_defaults(func=cmd_tree_matrix)

    p = sub.add_parser("verify", help="validate a mapping, detect its encoding")
    p.add_argument("--mapping", required=True)
    p.add_argument("--oracle", action="store_true", help="run the dense oracle")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("weights", help="max and mean Pauli weights")
    p.add_argument("--mapping", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("classify2", help="two-mode template of a mapping")
    p.add_argument("--mapping", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify2)

    p = sub.add_parser("equivalent", help="decide labelling-symmetry equivalence")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=cmd_equivalent)

    p = sub.add_parser("transform", help="transform a ladder-operator term")
    p.add_argument("--mapping", required=True)
    p.add_argument("--term", required=True, help='e.g. "a† 3 a 1"')
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("dot", help="emit a DOT diagram of a mapping")
    p.add_argument("--mapping", required=True)
    p.set_defaults(func=cmd_dot)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
