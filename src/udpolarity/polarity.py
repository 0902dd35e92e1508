"""Three-valued polarity marks, which are also the operators on them.

The marks are monotone (UP, rendered ^/↑), antitone (DOWN, rendered v/↓)
and no-information (FLAT, rendered =). Read as operators they are
identity, flip and flatten, a commutative monoid: `op * mark` applies
one, `op * op` composes two. A flip swaps UP and DOWN and leaves FLAT
alone, as a directionless mark has nothing to flip; flatten absorbs.

Each tree operator runs in O(1): it rewrites the mark it reaches and
composes itself onto the `pending` operator of a node whose children are
marked, which `push` hands down a level and `BinaryDepTree.nodes()`
resolves. An unassigned mark stays unassigned under every operator, and
children not yet marked take their parent's rewritten mark from its rule.
"""

import enum


class Polarity(enum.Enum):
    UP = "↑"
    DOWN = "↓"
    FLAT = "="

    # a member equals only itself; Enum's own hash runs Python code on
    # every dict lookup, as in the (gold, predicted) count of evaluation
    __hash__ = object.__hash__

    def flipped(self):
        if self is _UP:
            return _DOWN
        if self is _DOWN:
            return _UP
        return self

    def __mul__(self, other):
        """This operator applied to the mark, or composed with the
        operator, `other`."""
        if self is _UP:
            return other
        if self is _DOWN:
            return other.flipped()
        return self

    def __init__(self, pretty):
        # the spellings the renderers read for every token: plain member
        # attributes, set once from a table
        self.pretty = pretty
        self.ascii = {"↑": "^", "↓": "v", "=": "="}[pretty]

    @staticmethod
    def from_symbol(sym):
        """The mark `sym` spells, read in any case and padding."""
        mark = _SYMBOLS.get(sym) or _SYMBOLS.get(sym.strip().lower())
        if mark is None:
            raise ValueError(f"unknown polarity symbol {sym!r}")
        return mark


# the hot paths compare with module globals: looking a member up on the
# enum class takes several times as long
_UP, _DOWN, _FLAT = Polarity.UP, Polarity.DOWN, Polarity.FLAT

_SYMBOLS = {
    "↑": _UP, "^": _UP, "up": _UP,
    "↓": _DOWN, "v": _DOWN, "down": _DOWN,
    "=": _FLAT, "flat": _FLAT, "none": _FLAT,
}


class MarkError(Exception):
    """An operator met a node whose mark should have been assigned."""


def _apply(op, node):
    """Apply `op` to the node's mark and, when its children are marked,
    compose it onto its `pending` operator; None there is the identity."""
    if node.mark is not None:
        node.mark = op * node.mark
    if node.left is not None and node.left.mark is not None:
        pending = op if node.pending is None else op * node.pending
        node.pending = None if pending is _UP else pending


def push(node):
    """Hand the node's pending operator down to its children."""
    op = node.pending
    node.pending = None
    _apply(op, node.left)
    _apply(op, node.right)


def negate_subtree(tree):
    """Flip UP<->DOWN on every node of the subtree; FLAT stays put. An
    unassigned mark on the node or its children is a MarkError."""
    left, right = tree.left, tree.right
    if (tree.mark is None or left is not None and left.mark is None
            or right is not None and right.mark is None):
        raise MarkError("negation over an unassigned mark")
    _apply(_DOWN, tree)


def equalize_subtree(tree):
    """Set every node of the subtree to FLAT."""
    _apply(_FLAT, tree)


def _topdown(op, tree, name):
    """Apply `op` to the parent's own mark and to the sibling's subtree."""
    parent = tree.parent
    if parent is None:
        verb = "negate" if op is _DOWN else "equalize"
        raise MarkError(f"top-down {name} at the root has nothing to {verb}")
    if parent.mark is not None:
        parent.mark = op * parent.mark
    _apply(op, parent.right if tree is parent.left else parent.left)


def topdown_negation(tree):
    """Flip every mark under (and including) the parent, except this subtree.

    Unassigned marks are skipped; those nodes later inherit the flipped
    mark of their nearest marked ancestor anyway.
    """
    _topdown(_DOWN, tree, "negation")


def topdown_equalization(tree):
    """FLAT-out every mark under the parent except this subtree.

    Companion of topdown_negation for no-information contexts (e.g. an
    exact-cardinality quantifier flattening its clause).
    """
    _topdown(_FLAT, tree, "equalization")
