"""Three-valued polarity marks and the tree operators built on them.

The mark vocabulary is monotone (UP, rendered ^/↑), antitone (DOWN,
rendered v/↓) and no-information (FLAT, rendered =). Negation swaps UP and
DOWN and leaves FLAT alone: a directionless mark has nothing to flip.
Equalization forces FLAT everywhere and absorbs later negations.

The operators {identity, flip, flatten} form a commutative monoid in which
flatten absorbs, so each operator runs in O(1): it rewrites the marks it
reaches at once and composes itself onto the `pending` operator of the
subtree below, which `push` hands down a level and `BinaryDepTree.nodes()`
resolves; a mark still unassigned at a push is skipped.
"""

import enum


class Polarity(enum.Enum):
    UP = "↑"
    DOWN = "↓"
    FLAT = "="

    def flipped(self):
        if self is Polarity.UP:
            return Polarity.DOWN
        if self is Polarity.DOWN:
            return Polarity.UP
        return self

    @property
    def pretty(self):
        return self.value

    @property
    def ascii(self):
        return {"UP": "^", "DOWN": "v", "FLAT": "="}[self.name]

    @classmethod
    def from_symbol(cls, sym):
        table = {
            "↑": cls.UP, "^": cls.UP, "up": cls.UP,
            "↓": cls.DOWN, "v": cls.DOWN, "down": cls.DOWN,
            "=": cls.FLAT, "flat": cls.FLAT, "none": cls.FLAT,
        }
        key = sym.strip().lower() if len(sym) > 1 else sym
        if key not in table:
            raise ValueError(f"unknown polarity symbol {sym!r}")
        return table[key]


class MarkError(Exception):
    """An operator met a node whose mark should have been assigned."""


# pending operators; None in a `pending` slot is the identity
FLIP = "flip"
FLATTEN = "flatten"


def _rewrite(op, node):
    """Apply `op` to the node's own mark; flip leaves an unassigned mark."""
    if op is FLATTEN:
        node.mark = Polarity.FLAT
    elif node.mark is not None:
        node.mark = node.mark.flipped()


def _apply(op, node):
    """Apply `op` to the node's mark and compose it onto its `pending`."""
    _rewrite(op, node)
    if node.left is not None:
        if node.pending is None:
            node.pending = op
        else:  # flip twice is the identity, flatten absorbs
            node.pending = None if op is node.pending is FLIP else FLATTEN


def push(node):
    """Hand the node's pending operator down to its children, skipping a
    child whose mark is unassigned together with its subtree."""
    op = node.pending
    node.pending = None
    for child in (node.left, node.right):
        if child.mark is not None:
            _apply(op, child)


def negate_subtree(tree):
    """Flip UP<->DOWN on every node of the subtree; FLAT stays put. An
    unassigned mark on the node or its children is a MarkError."""
    if any(n is not None and n.mark is None for n in (tree, tree.left, tree.right)):
        raise MarkError("negation over an unassigned mark")
    _apply(FLIP, tree)


def equalize_subtree(tree):
    """Set every node of the subtree to FLAT."""
    _apply(FLATTEN, tree)


def _topdown(op, tree, strict, name):
    """Apply `op` to the parent's own mark and to the sibling's subtree."""
    parent = tree.parent
    if parent is None:
        verb = "negate" if op is FLIP else "equalize"
        raise MarkError(f"top-down {name} at the root has nothing to {verb}")
    sibling = parent.right if tree is parent.left else parent.left
    scope = (parent, sibling, sibling.left, sibling.right)
    if strict and any(n is not None and n.mark is None for n in scope):
        raise MarkError(f"top-down {name} over an unassigned mark")
    _rewrite(op, parent)
    _apply(op, sibling)


def topdown_negation(tree, strict=True):
    """Flip every mark under (and including) the parent, except this subtree.

    With strict=True an unassigned mark on the parent, the sibling or its
    children is an error; the lenient form skips such nodes, which later
    inherit the flipped mark of their nearest processed ancestor anyway.
    """
    _topdown(FLIP, tree, strict, "negation")


def topdown_equalization(tree, strict=True):
    """FLAT-out every mark under the parent except this subtree.

    Companion of topdown_negation for no-information contexts (e.g. an
    exact-cardinality quantifier flattening its clause).
    """
    _topdown(FLATTEN, tree, strict, "equalization")
