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
from .gf2 import BinMatrix
from .mapping import FermionQubitMapping, NonProduct, vacuum_state
from .pauli import LETTERS, PauliString, ProductState

# An edge is its slot k in TernaryTree.children: 0, 1, 2 for X, Y, Z.
_SLOT = {"X": 0, "Y": 1, "Z": 2}


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
    if n < 1:
        raise ValueError("a tree needs at least one vertex")
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
#
# A root-to-leaf path is the Pauli word X^x Z^z whose x mask holds the
# vertices where it takes an X or Y edge and whose z mask those where it
# takes a Y or Z edge.

def _step(x: int, z: int, vertex: int, slot: int) -> tuple[int, int]:
    """The masks (x, z) extended by the edge in ``slot`` of ``vertex``."""
    return x | ((slot < 2) << vertex), z | ((slot > 0) << vertex)


def _vacuum_slots(v: ProductState) -> list[tuple[int, int]]:
    """Per qubit, the slot L = z(2 - x) of its eigenstate letter and its sign bit s.

    The ordered pair of slots (B, C) with -iBC stabilizing that eigenstate
    is ((L + 1 + s) mod 3, (L + 2 - s) mod 3).
    """
    return [((v.z >> j & 1) * (2 - (v.x >> j & 1)), v.s >> j & 1) for j in range(v.n)]


def canonical_paths(t: TernaryTree) -> tuple[PauliString, ...]:
    """The 2n+1 plain path words X^x Z^z, consecutive pairs stabilizing |0...0>.

    Children are visited X, Y, Z; traversing a Y edge reverses the visit
    order (Z, Y, X) for that entire subtree, toggling again on nested Y
    edges.  The final path takes only Z edges and is left unused by the
    canonical mapping.
    """
    out: list[PauliString] = []
    stack: list[tuple[int | None, int, int, bool]] = [(t.root, 0, 0, False)]
    while stack:
        v, x, z, flipped = stack.pop()
        if v is None:
            out.append(PauliString(t.n, x, z))
            continue
        for k in (0, 1, 2) if flipped else (2, 1, 0):  # pushed in reverse visit order
            stack.append((t.children[v][k], *_step(x, z, v, k), flipped ^ (k == 1)))
    return tuple(out)


def canonical_mapping(t: TernaryTree) -> FermionQubitMapping:
    """The unique T-based mapping that linearly encodes the Fock basis.

    Path string i is taken as the plain X^x Z^z word (each local Y thereby
    carrying a -i), and consecutive paths are paired as
    (G_2i, G_2i+1) = (hat_2i, i*hat_2i+1).  The vacuum is |0...0> and
    every Fock state has phase exactly +1.
    """
    paths = canonical_paths(t)
    pairs = tuple((paths[2 * i], paths[2 * i + 1].times_i()) for i in range(t.n))
    return FermionQubitMapping(t.n, pairs)


def tree_matrix(t: TernaryTree) -> BinMatrix:
    """G_T with column j the X/Y support of the canonical mapping's G_2j."""
    return flip_matrix(canonical_mapping(t))


# -- product-vacuum pairing ----------------------------------------------------

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
    slots = _vacuum_slots(v)
    # top down: the masks of the edges from the root to each vertex
    prefix = {t.root: (0, 0)}
    order = [t.root]
    for u in order:
        for k, c in enumerate(t.children[u]):
            if c is not None:
                prefix[c] = _step(*prefix[u], u, k)
                order.append(c)
    # bottom up: the stabilizing-slot descent from each vertex, with the
    # parity of the -1-eigenstate factors it passes
    descent: dict[int | None, tuple[int, int, int]] = {None: (0, 0, 0)}
    for u in reversed(order):
        slot, sign = slots[u]
        x, z, minus = descent[t.children[u][slot]]
        descent[u] = (*_step(x, z, u, slot), minus ^ sign)
    pairs = []
    for i, (slot, sign) in enumerate(slots):
        ops = []
        swap = 0
        for k in ((slot + 1 + sign) % 3, (slot + 2 - sign) % 3):
            x, z, minus = descent[t.children[i][k]]
            x, z = _step(x | prefix[i][0], z | prefix[i][1], i, k)
            ops.append(PauliString(t.n, x, z, (x & z).bit_count()))
            swap ^= minus
        pairs.append((ops[1], ops[0]) if swap else (ops[0], ops[1]))
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
    split = (a.x | a.z) & (b.x | b.z) & ((a.x ^ b.x) | (a.z ^ b.z))
    if not split:
        raise ValueError("operators do not diverge on any shared qubit")
    return (split & -split).bit_length() - 1


def _arrange(a: PauliString, b: PauliString, swap: bool, k: int) -> tuple[PauliString, PauliString]:
    """The pair i^k (b, -a) if ``swap``, else i^k (a, b)."""
    return (b.times_i(k), a.times_i(k + 2)) if swap else (a.times_i(k), b.times_i(k))


def revacuum(
    t: TernaryTree, m: FermionQubitMapping, target: ProductState
) -> tuple[TernaryTree, FermionQubitMapping]:
    """Relabel tree edges per vertex so the mapping's vacuum becomes ``target``.

    The slot permutation at vertex q sends the old stabilizing-pair slots
    to the new ones (and hence old stabilizing slot to new).  Each pair of
    m is an arrangement (swap, k), k in {0, 2}, of its vertex's pair in the
    old vacuum pairing, and keeps that arrangement of the new one; where
    the edge relabelling alone would flip a stabilizer eigenvalue, the new
    pairing has already swapped the operators' roles.
    """
    if target.n != t.n or m.n != t.n:
        raise ValueError("size mismatch")
    if target.phase != 0:
        raise ValueError("target vacuum must carry phase +1")
    old = vacuum_state(m)
    if isinstance(old, NonProduct):
        raise ValueError(f"mapping is not product-preserving: {old}")

    canon_old = pair_for_vacuum(t, old)
    arrangements: list[tuple[int, bool, int]] = []
    for a, b in m.pairs:
        q = _divergence_vertex(a, b)
        ca, cb = canon_old.pairs[q]
        swap = (a.x, a.z) != (ca.x, ca.z)
        # k is even when the pair matches: an odd k would make m's own vacuum
        # a -1 eigenstate of its stabilizer -iab
        k = (a.phase - (cb if swap else ca).phase) % 4
        if _arrange(ca, cb, swap, k) != (a, b):
            raise ValueError("pair is not a vacuum-preserving arrangement of path strings")
        arrangements.append((q, swap, k))

    # slot L_old + d moves to L_new + d, or to L_new - d where the sign bit
    # changes: the stabilizing slot and the ordered pair go to their new ones
    rows = []
    for row, (lo, so), (ln, sn) in zip(t.children, _vacuum_slots(old), _vacuum_slots(target)):
        e = 1 if so == sn else -1
        rows.append(tuple(row[(lo + e * (j - ln)) % 3] for j in range(3)))
    t_new = TernaryTree(t.n, t.root, tuple(rows))

    canon_new = pair_for_vacuum(t_new, target)
    pairs = tuple(_arrange(*canon_new.pairs[q], swap, k) for q, swap, k in arrangements)
    return t_new, FermionQubitMapping(t.n, pairs)


# -- tree file grammar ------------------------------------------------------------

def format_tree(t: TernaryTree) -> str:
    out = []
    stack: list[tuple[str, int | None]] = [("", t.root)]  # text, then the vertex it opens
    while stack:
        text, v = stack.pop()
        out.append(text)
        if v is not None:
            out.append(f"({v}")
            stack.append((")", None))
            x, y, z = t.children[v]  # pushed in reverse, so X is written first
            if z is not None:
                stack.append((" Z=", z))
            if y is not None:
                stack.append((" Y=", y))
            if x is not None:
                stack.append((" X=", x))
    return "".join(out)


def parse_tree(text: str) -> TernaryTree:
    """Parse `(0 X=(1) Y=(2 Z=(3)) Z=(4))`-style tree text of any depth."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").replace("=", " = ").split()
    tokens.append("<end>")  # matches no expected token, so parsing stops on it
    pos = 0

    def expect(tok: str):
        nonlocal pos
        if tokens[pos] != tok:
            raise MalformedTree(f"expected {tok!r}, got {tokens[pos]!r}")
        pos += 1

    children: dict[int, dict[str, int]] = {}
    stack: list[tuple[int, str | None]] = []  # open vertices, each with its slot letter
    slot = None
    while True:
        expect("(")
        if not pauli.is_index(tokens[pos]):
            raise MalformedTree("expected a vertex label")
        stack.append((int(tokens[pos]), slot))
        pos += 1
        # close finished vertices until one opens another edge
        while tokens[pos] not in _SLOT:
            expect(")")
            label, letter = stack.pop()
            if not stack:
                break
            slots = children.setdefault(stack[-1][0], {})
            if letter in slots:
                raise MalformedTree(f"duplicate {letter} slot on vertex {stack[-1][0]}")
            slots[letter] = label
        if not stack:
            break
        slot = tokens[pos]
        pos += 1
        expect("=")

    root = label
    if pos != len(tokens) - 1:
        raise MalformedTree(f"trailing input: {' '.join(tokens[pos:-1])!r}")
    labels = {root}
    for v, slots in children.items():
        labels.add(v)
        labels.update(slots.values())
    n = len(labels)
    if labels != set(range(n)):
        raise MalformedTree("vertex labels must be exactly 0..n-1")
    return build_tree(n, root, children)
