"""Ternary trees and the tree-to-mapping constructions.

A ternary tree on n vertices (labels 0..n-1, doubling as qubit indices)
yields 2n+1 root-to-leaf paths whose Pauli strings pairwise anticommute.
This module builds:

  * the plain path strings,
  * the pairing with an arbitrary product vacuum (vertex i pairs mode i),
  * the braided variant whose Fock phases are all real,
  * the canonical mapping m(T) that linearly encodes the Fock basis,
    together with its matrix G_T,
  * re-vacuuming by local edge relabelling, and complete trees.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import pauli
from .encoding import flip_matrix
from .gf2 import BinMatrix, invert
from .mapping import FermionQubitMapping, NonProduct, vacuum_state
from .pauli import LETTERS, PauliString, ProductState

_SLOT = {"X": 0, "Y": 1, "Z": 2}

# ordered anticommuting pair (B, C) with -iBC stabilizing each eigenstate
_STAB_PAIR = {
    ("Z", +1): ("X", "Y"),
    ("Z", -1): ("Y", "X"),
    ("X", +1): ("Y", "Z"),
    ("X", -1): ("Z", "Y"),
    ("Y", +1): ("Z", "X"),
    ("Y", -1): ("X", "Z"),
}


class MalformedTree(ValueError):
    """The vertex/edge structure is not a labelled ternary tree."""


@dataclass(frozen=True)
class TernaryTree:
    """Rooted tree, <= 3 children per vertex, child slots labelled X/Y/Z."""

    n: int
    root: int
    children: tuple[tuple[int | None, int | None, int | None], ...]

    def child(self, vertex: int, letter: str) -> int | None:
        return self.children[vertex][_SLOT[letter]]

    def __str__(self) -> str:
        return format_tree(self)


def build_tree(
    n: int, root: int, children: dict[int, dict[str, int]]
) -> TernaryTree:
    """Validate and freeze a tree given per-vertex child slots."""
    if not 0 <= root < n:
        raise MalformedTree(f"root {root} out of range")
    table: list[list[int | None]] = [[None, None, None] for _ in range(n)]
    parent_count = [0] * n
    for v, slots in children.items():
        if not 0 <= v < n:
            raise MalformedTree(f"vertex {v} out of range")
        for letter, c in slots.items():
            if letter not in _SLOT:
                raise MalformedTree(f"bad edge label {letter!r}")
            if not 0 <= c < n:
                raise MalformedTree(f"child {c} out of range")
            if table[v][_SLOT[letter]] is not None:
                raise MalformedTree(f"duplicate {letter} slot on vertex {v}")
            table[v][_SLOT[letter]] = c
            parent_count[c] += 1
    if parent_count[root] != 0:
        raise MalformedTree("root has a parent")
    for v in range(n):
        if v != root and parent_count[v] != 1:
            raise MalformedTree(f"vertex {v} has {parent_count[v]} parents")
    tree = TernaryTree(n, root, tuple(tuple(row) for row in table))
    # reachability doubles as the acyclicity check
    seen = set()
    stack = [root]
    while stack:
        v = stack.pop()
        if v in seen:
            raise MalformedTree("cycle detected")
        seen.add(v)
        stack.extend(c for c in tree.children[v] if c is not None)
    if len(seen) != n:
        raise MalformedTree("tree is not connected")
    return tree


def complete_tree(depth: int) -> TernaryTree:
    """Complete ternary tree of the given depth (1, 4, 13, 40, ... vertices).

    Labels are assigned recursively: the X subtree takes the lowest block,
    then the Y and Z subtrees, with the root labelled last.  The subtree
    under the root's X edge is therefore labelled exactly like the next
    smaller complete tree, which makes the encoding matrices nest: the
    top-left m x m block of the (3m+1)-vertex matrix is the m-vertex one.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    n = ((3**depth) - 1) // 2
    children: dict[int, dict[str, int]] = {}

    def grow(d: int, base: int) -> int:
        """Build a depth-d subtree labelled base..base+size-1; return its root."""
        size = ((3**d) - 1) // 2
        root = base + size - 1
        if d > 1:
            sub = (size - 1) // 3
            slots = {}
            for k, letter in enumerate(LETTERS):
                slots[letter] = grow(d - 1, base + k * sub)
            children[root] = slots
        return root

    root = grow(depth, 0)
    assert root == n - 1
    return build_tree(n, root, children)


def random_tree(n: int, seed: int) -> TernaryTree:
    """Deterministic random labelled ternary tree on n vertices."""
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    children: dict[int, dict[str, int]] = {}
    open_slots: list[tuple[int, str]] = [(order[0], ell) for ell in LETTERS]
    for v in order[1:]:
        k = rng.randrange(len(open_slots))
        parent, letter = open_slots.pop(k)
        children.setdefault(parent, {})[letter] = v
        open_slots.extend((v, ell) for ell in LETTERS)
    return build_tree(n, order[0], children)


# -- path machinery -----------------------------------------------------------

Path = tuple[tuple[int, str], ...]  # ordered (vertex, edge letter) steps


def _path_string(n: int, path: Path, phase: int | None = None) -> PauliString:
    """Pauli string spelled by a path; default coefficient is +1."""
    letters = ["I"] * n
    for vertex, letter in path:
        letters[vertex] = letter
    if phase is None:
        return pauli.from_letters(letters)
    p = pauli.from_letters(letters)
    return PauliString(n, p.x, p.z, phase)


def all_paths(t: TernaryTree) -> tuple[Path, ...]:
    """Root-to-leaf paths in plain depth-first X, Y, Z order."""
    out: list[Path] = []

    def visit(vertex: int, prefix: list[tuple[int, str]]):
        for letter in LETTERS:
            step = prefix + [(vertex, letter)]
            child = t.child(vertex, letter)
            if child is None:
                out.append(tuple(step))
            else:
                visit(child, step)

    visit(t.root, [])
    return tuple(out)


def path_paulis(t: TernaryTree) -> list[PauliString]:
    """The 2n+1 pairwise-anticommuting path strings, each with coefficient +1."""
    return [_path_string(t.n, p) for p in all_paths(t)]


def canonical_paths(t: TernaryTree) -> tuple[Path, ...]:
    """Paths ordered so that consecutive pairs stabilize |0...0>.

    Children are visited X, Y, Z; traversing a Y edge reverses the visit
    order (Z, Y, X) for that entire subtree, toggling again on nested Y
    edges.  The final path takes only Z edges and is left unused by the
    canonical mapping.
    """
    out: list[Path] = []

    def visit(vertex: int, prefix: list[tuple[int, str]], flipped: bool):
        order = ("Z", "Y", "X") if flipped else ("X", "Y", "Z")
        for letter in order:
            step = prefix + [(vertex, letter)]
            child = t.child(vertex, letter)
            if child is None:
                out.append(tuple(step))
            else:
                visit(child, step, flipped ^ (letter == "Y"))

    visit(t.root, [], False)
    return tuple(out)


def canonical_mapping(t: TernaryTree) -> FermionQubitMapping:
    """The unique T-based mapping that linearly encodes the Fock basis.

    Path string i is taken as the plain X^x Z^z word (each local Y thereby
    carrying a -i), and consecutive paths are paired as
    (G_2i, G_2i+1) = (hat_2i, i*hat_2i+1).  The vacuum is |0...0> and
    every Fock state has phase exactly +1.
    """
    paths = canonical_paths(t)
    pairs = []
    for i in range(t.n):
        even = _path_string(t.n, paths[2 * i], phase=0)
        odd = _path_string(t.n, paths[2 * i + 1], phase=1)
        pairs.append((even, odd))
    return FermionQubitMapping(t.n, tuple(pairs))


def tree_matrix(t: TernaryTree) -> BinMatrix:
    """G_T with column j the X/Y support of the canonical mapping's G_2j."""
    g = flip_matrix(canonical_mapping(t))
    invert(g)  # G_T is always invertible; fail loudly otherwise
    return g


# -- product-vacuum pairing ----------------------------------------------------

def _ancestor_steps(t: TernaryTree) -> dict[int, Path]:
    """Root-to-vertex edge steps for every vertex."""
    steps: dict[int, Path] = {t.root: ()}
    stack = [t.root]
    while stack:
        v = stack.pop()
        for letter in LETTERS:
            c = t.child(v, letter)
            if c is not None:
                steps[c] = steps[v] + ((v, letter),)
                stack.append(c)
    return steps


def _stabilizer_descent(t: TernaryTree, v: ProductState, vertex: int, letter: str) -> tuple[Path, int]:
    """Follow stabilizing-letter edges below ``vertex``'s ``letter`` slot.

    Returns the (vertex, letter) steps strictly below the starting vertex
    and the count of -1-eigenstate factors passed through.
    """
    steps: list[tuple[int, str]] = []
    minus = 0
    child = t.child(vertex, letter)
    while child is not None:
        p_letter, sign = v.qubit_states[child]
        steps.append((child, p_letter))
        if sign < 0:
            minus += 1
        child = t.child(child, p_letter)
    return tuple(steps), minus


def pair_for_vacuum(t: TernaryTree, v: ProductState) -> FermionQubitMapping:
    """The unique unsigned pairing of path strings with vacuum v.

    Mode i pairs at vertex i: the two operators diverge there with the
    ordered letters (B, C) whose product stabilizes v's local factor, each
    continuing along stabilizing-letter edges.  When the continuation
    passes an odd number of -1-eigenstate factors the two operators swap
    roles.  The one unused path string follows stabilizing letters from
    the root.
    """
    if v.n != t.n:
        raise ValueError("state width differs from tree size")
    if v.phase != 0:
        raise ValueError("vacuum specification must carry phase +1")
    ancestors = _ancestor_steps(t)
    pairs = []
    for i in range(t.n):
        b_letter, c_letter = _STAB_PAIR[v.qubit_states[i]]
        prefix = ancestors[i]
        b_steps, b_minus = _stabilizer_descent(t, v, i, b_letter)
        c_steps, c_minus = _stabilizer_descent(t, v, i, c_letter)
        op_b = _path_string(t.n, prefix + ((i, b_letter),) + b_steps)
        op_c = _path_string(t.n, prefix + ((i, c_letter),) + c_steps)
        if (b_minus + c_minus) % 2:
            op_b, op_c = op_c, op_b
        pairs.append((op_b, op_c))
    return FermionQubitMapping(t.n, tuple(pairs))


def legacy_pairing(t: TernaryTree) -> FermionQubitMapping:
    """The classic all-|0> pairing (X/Y divergence, Z continuations)."""
    return pair_for_vacuum(t, pauli.computational_state(t.n, 0))


def braided_real_pairing(t: TernaryTree) -> FermionQubitMapping:
    """All-|0> pairing braided so that every Fock phase is real.

    Pairs whose first operator carries an odd number of Y letters are
    braided (a, b) -> (-b, a); the vacuum stays |0...0> and all Fock
    states land in the +/-1 computational basis.
    """
    base = legacy_pairing(t)
    pairs = []
    for a, b in base.pairs:
        if a.y_count() % 2:
            pairs.append((b.negated(), a))
        else:
            pairs.append((a, b))
    return FermionQubitMapping(t.n, tuple(pairs))


# -- re-vacuuming ----------------------------------------------------------------

def _divergence_vertex(a: PauliString, b: PauliString) -> int:
    """The unique qubit where two path strings act with different letters."""
    both = (a.x | a.z) & (b.x | b.z)
    for j in range(a.n):
        if (both >> j) & 1 and a.letter(j) != b.letter(j):
            return j
    raise ValueError("operators do not diverge on any shared qubit")


def _pair_transform(pair, canon) -> str:
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


_APPLY_TRANSFORM = {
    "id": lambda a, b: (a, b),
    "negate": lambda a, b: (a.negated(), b.negated()),
    "braid": lambda a, b: (b, a.negated()),
    "braid_neg": lambda a, b: (b.negated(), a),
}


def revacuum(
    t: TernaryTree, m: FermionQubitMapping, target: ProductState
) -> tuple[TernaryTree, FermionQubitMapping]:
    """Relabel tree edges per vertex so the mapping's vacuum becomes ``target``.

    The permutation at vertex q sends the old stabilizing-pair letters to
    the new ones (and hence old stabilizing letter to new).  Pair order,
    braiding and signs of m are preserved mode by mode; where the edge
    relabelling alone would flip a stabilizer eigenvalue the affected
    pair's operators swap roles, as the product-vacuum pairing requires.
    """
    if target.n != t.n or m.n != t.n:
        raise ValueError("size mismatch")
    if target.phase != 0:
        raise ValueError("target vacuum must carry phase +1")
    old = vacuum_state(m)
    if isinstance(old, NonProduct):
        raise ValueError(f"mapping is not product-preserving: {old}")

    canon_old = pair_for_vacuum(t, old)
    transforms: list[tuple[int, str]] = []
    for a, b in m.pairs:
        q = _divergence_vertex(a, b)
        transforms.append((q, _pair_transform((a, b), canon_old.pairs[q])))

    perms: list[dict[str, str]] = []
    for q in range(t.n):
        ob, oc = _STAB_PAIR[old.qubit_states[q]]
        nb, nc = _STAB_PAIR[target.qubit_states[q]]
        rho = {ob: nb, oc: nc}
        (last_old,) = set(LETTERS) - {ob, oc}
        (last_new,) = set(LETTERS) - {nb, nc}
        rho[last_old] = last_new
        perms.append(rho)

    children: dict[int, dict[str, int]] = {}
    for q in range(t.n):
        slots = {}
        for letter in LETTERS:
            c = t.child(q, letter)
            if c is not None:
                slots[perms[q][letter]] = c
        if slots:
            children[q] = slots
    t_new = build_tree(t.n, t.root, children)

    canon_new = pair_for_vacuum(t_new, target)
    pairs = []
    for q, kind in transforms:
        a, b = canon_new.pairs[q]
        pairs.append(_APPLY_TRANSFORM[kind](a, b))
    return t_new, FermionQubitMapping(t.n, tuple(pairs))


# -- tree file grammar ------------------------------------------------------------

def format_tree(t: TernaryTree) -> str:
    def emit(v: int) -> str:
        parts = [str(v)]
        for letter in LETTERS:
            c = t.child(v, letter)
            if c is not None:
                parts.append(f"{letter}={emit(c)}")
        return "(" + " ".join(parts) + ")"

    return emit(t.root)


def parse_tree(text: str) -> TernaryTree:
    """Parse `(0 X=(1) Y=(2 Z=(3)) Z=(4))`-style tree text."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").replace("=", " = ").split()
    pos = 0

    def expect(tok: str):
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] != tok:
            got = tokens[pos] if pos < len(tokens) else "<end>"
            raise MalformedTree(f"expected {tok!r}, got {got!r}")
        pos += 1

    children: dict[int, dict[str, int]] = {}

    def node() -> int:
        nonlocal pos
        expect("(")
        if pos >= len(tokens) or not tokens[pos].isdigit():
            raise MalformedTree("expected a vertex label")
        label = int(tokens[pos])
        pos += 1
        while pos < len(tokens) and tokens[pos] in _SLOT:
            letter = tokens[pos]
            pos += 1
            expect("=")
            child = node()
            slots = children.setdefault(label, {})
            if letter in slots:
                raise MalformedTree(f"duplicate {letter} slot on vertex {label}")
            slots[letter] = child
        expect(")")
        return label

    root = node()
    if pos != len(tokens):
        raise MalformedTree(f"trailing input: {' '.join(tokens[pos:])!r}")
    labels = {root}
    for v, slots in children.items():
        labels.add(v)
        labels.update(slots.values())
    n = len(labels)
    if labels != set(range(n)):
        raise MalformedTree("vertex labels must be exactly 0..n-1")
    return build_tree(n, root, children)
