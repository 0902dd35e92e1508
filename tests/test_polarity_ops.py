import random

import pytest

from udpolarity import (
    MarkError,
    Polarity,
    Token,
    binarize,
    equalize_subtree,
    negate_subtree,
    polarize,
    topdown_equalization,
    topdown_negation,
)
from udpolarity.binarize import BinaryDepTree
from udpolarity.polarize import _react

from .conftest import NO_STUDENT_REFUSED, graph_of


def leaf(form, tid, mark=None):
    node = BinaryDepTree(
        Token(id=tid, form=form, lemma=form.lower(), upos="NOUN", head=0, deprel="dep")
    )
    node.mark = mark
    return node


def node(label, left, right, mark=None):
    out = BinaryDepTree(label, left, right)
    out.mark = mark
    return out


def marks_of(tree):
    return [n.mark for n in tree.nodes()]


def random_marked_tree(rng, depth, allow_flat=True, _counter=None):
    """Random marked binary tree of at most the given depth."""
    if _counter is None:
        _counter = [0]
    choices = [Polarity.UP, Polarity.DOWN] + ([Polarity.FLAT] if allow_flat else [])
    mark = rng.choice(choices)
    if depth <= 0 or rng.random() < 0.3:
        _counter[0] += 1
        return leaf(f"w{_counter[0]}", _counter[0], mark)
    left = random_marked_tree(rng, depth - 1, allow_flat, _counter)
    right = random_marked_tree(rng, depth - 1, allow_flat, _counter)
    return node("dep", left, right, mark)


# ------------------------------------------------------------ negate

def test_negate_single_leaf():
    tree = leaf("dog", 1, Polarity.UP)
    negate_subtree(tree)
    assert tree.mark is Polarity.DOWN


def test_negate_mark_to_go_subtree():
    tree = node("mark", leaf("to", 1, Polarity.UP), leaf("go", 2, Polarity.UP), Polarity.UP)
    negate_subtree(tree)
    assert marks_of(tree) == [Polarity.DOWN] * 3


def test_negate_twice_is_identity_without_flat():
    rng = random.Random(7)
    for _ in range(50):
        tree = random_marked_tree(rng, 5, allow_flat=False)
        before = marks_of(tree)
        negate_subtree(tree)
        negate_subtree(tree)
        assert marks_of(tree) == before


def test_negate_fixes_flat():
    tree = leaf("cats", 1, Polarity.FLAT)
    negate_subtree(tree)
    assert tree.mark is Polarity.FLAT


def test_negate_unassigned_is_error():
    tree = node("dep", leaf("a", 1, Polarity.UP), leaf("b", 2), Polarity.UP)
    with pytest.raises(MarkError):
        negate_subtree(tree)


@pytest.mark.parametrize("unassigned", ["node", "left"])
def test_negate_unassigned_node_or_left_child_is_error(unassigned):
    # the right child is test_negate_unassigned_is_error's case; a marked
    # leaf and a marked node are test_negate_single_leaf's and
    # test_negate_mark_to_go_subtree's
    tree = node("dep", leaf("a", 1, Polarity.UP), leaf("b", 2, Polarity.DOWN), Polarity.UP)
    {"node": tree, "left": tree.left}[unassigned].mark = None
    with pytest.raises(MarkError):
        negate_subtree(tree)


# ------------------------------------------------------------ equalize

def test_equalize_leaf():
    tree = leaf("dog", 1, Polarity.UP)
    equalize_subtree(tree)
    assert tree.mark is Polarity.FLAT


def test_equalize_noun_subtree():
    tree = node("det", leaf("the", 1, Polarity.UP), leaf("rabbit", 2, Polarity.UP), Polarity.UP)
    equalize_subtree(tree)
    assert marks_of(tree) == [Polarity.FLAT] * 3


def test_equalize_idempotent_and_absorbs_negation():
    rng = random.Random(11)
    for _ in range(50):
        tree = random_marked_tree(rng, 5)
        equalize_subtree(tree)
        once = marks_of(tree)
        equalize_subtree(tree)
        assert marks_of(tree) == once
        negate_subtree(tree)
        assert marks_of(tree) == once  # all FLAT, negation fixes FLAT


# ------------------------------------------------------------ backward
# The polarizer's rules react to the head side's mark (right child) by
# negating or flattening the dependent side (left child): `_react` with the
# right child as trigger, built on negate_subtree/equalize_subtree.

def test_backward_negation_fires_on_down_right():
    tree = node("obj", leaf("L", 1, Polarity.UP), leaf("R", 2, Polarity.DOWN), Polarity.UP)
    _react(tree.right, tree.left)
    assert tree.left.mark is Polarity.DOWN
    assert tree.right.mark is Polarity.DOWN
    assert tree.mark is Polarity.UP


def test_backward_negation_noop_without_trigger():
    tree = node("obj", leaf("L", 1, Polarity.UP), leaf("R", 2, Polarity.UP), Polarity.UP)
    _react(tree.right, tree.left)
    assert tree.left.mark is Polarity.UP


def test_backward_negation_flips_whole_left_subtree():
    left = node("det", leaf("a", 1, Polarity.UP), leaf("dog", 2, Polarity.UP), Polarity.UP)
    tree = node("obj", left, leaf("R", 3, Polarity.DOWN), Polarity.UP)
    _react(tree.right, tree.left)
    assert marks_of(left) == [Polarity.DOWN] * 3


def test_backward_equalization_fires_on_flat_right():
    tree = node("obj", leaf("L", 1, Polarity.UP), leaf("R", 2, Polarity.FLAT), Polarity.UP)
    _react(tree.right, tree.left)
    assert tree.left.mark is Polarity.FLAT


def test_backward_equalization_noop_without_trigger():
    tree = node("obj", leaf("L", 1, Polarity.UP), leaf("R", 2, Polarity.UP), Polarity.UP)
    _react(tree.right, tree.left)
    assert tree.left.mark is Polarity.UP


def test_backward_equalization_reaches_descendants():
    inner = node("det", leaf("a", 1, Polarity.DOWN), leaf("dog", 2, Polarity.UP), Polarity.UP)
    tree = node("obj", inner, leaf("R", 3, Polarity.FLAT), Polarity.UP)
    _react(tree.right, tree.left)
    assert marks_of(inner) == [Polarity.FLAT] * 3


# ------------------------------------------------------------ forward
# The adverbial rule reacts to the dependent's mark (left child): `_react`
# with the left child as trigger.

def test_forward_negation_fires_on_down_left():
    tree = node("advmod", leaf("L", 1, Polarity.DOWN), leaf("R", 2, Polarity.UP), Polarity.UP)
    _react(tree.left, tree.right)
    assert tree.right.mark is Polarity.DOWN
    assert tree.left.mark is Polarity.DOWN


def test_forward_negation_noop_without_trigger():
    tree = node("advmod", leaf("L", 1, Polarity.UP), leaf("R", 2, Polarity.UP), Polarity.UP)
    _react(tree.left, tree.right)
    assert tree.right.mark is Polarity.UP


def test_forward_negation_flips_deep_right_subtree():
    deep = node(
        "obj",
        leaf("x", 2, Polarity.UP),
        node("cop", leaf("y", 3, Polarity.DOWN), leaf("z", 4, Polarity.UP), Polarity.UP),
        Polarity.UP,
    )
    tree = node("advmod", leaf("L", 1, Polarity.DOWN), deep, Polarity.UP)
    _react(tree.left, tree.right)
    assert marks_of(deep) == [
        Polarity.DOWN, Polarity.DOWN, Polarity.DOWN, Polarity.UP, Polarity.DOWN
    ]


def test_forward_equalization_fires_on_flat_left():
    tree = node("advmod", leaf("L", 1, Polarity.FLAT), leaf("R", 2, Polarity.UP), Polarity.UP)
    _react(tree.left, tree.right)
    assert tree.right.mark is Polarity.FLAT


def test_forward_equalization_noop_on_down_left():
    # an antitone dependent negates its sibling instead of flattening it
    tree = node("advmod", leaf("L", 1, Polarity.DOWN), leaf("R", 2, Polarity.UP), Polarity.UP)
    _react(tree.left, tree.right)
    assert tree.right.mark is Polarity.DOWN


def test_forward_equalization_deep():
    deep = node("obj", leaf("x", 2, Polarity.UP), leaf("z", 3, Polarity.DOWN), Polarity.UP)
    tree = node("advmod", leaf("L", 1, Polarity.FLAT), deep, Polarity.UP)
    _react(tree.left, tree.right)
    assert marks_of(deep) == [Polarity.FLAT] * 3


# ------------------------------------------------------------ top-down

def _no_cat_flies():
    det = node("det", leaf("No", 1, Polarity.UP), leaf("cat", 2, Polarity.DOWN), Polarity.UP)
    tree = node("nsubj", det, leaf("flies", 3, Polarity.UP), Polarity.UP)
    return tree, det


def test_topdown_negation_no_cat_flies():
    tree, det = _no_cat_flies()
    topdown_negation(det)
    assert tree.mark is Polarity.DOWN
    assert tree.right.mark is Polarity.DOWN  # flies
    assert det.mark is Polarity.UP  # excluded subtree untouched
    assert det.left.mark is Polarity.UP
    assert det.right.mark is Polarity.DOWN


def test_topdown_negation_only_parent_in_scope():
    # the trigger subtree is the parent's right child; only the parent and
    # the other (left) child flip
    lhs = leaf("x", 1, Polarity.UP)
    trigger = leaf("y", 2, Polarity.UP)
    parent = node("dep", lhs, trigger, Polarity.UP)
    topdown_negation(trigger)
    assert parent.mark is Polarity.DOWN
    assert lhs.mark is Polarity.DOWN
    assert trigger.mark is Polarity.UP


def test_topdown_negation_twice_restores_outside_marks():
    tree, det = _no_cat_flies()
    before = marks_of(tree)
    topdown_negation(det)
    topdown_negation(det)
    assert marks_of(tree) == before


def test_topdown_negation_at_root_is_error():
    tree, _det = _no_cat_flies()
    with pytest.raises(MarkError):
        topdown_negation(tree)


def test_negate_twice_restores_polarized_sentence_tree():
    g = graph_of(NO_STUDENT_REFUSED)
    tree = binarize(g)
    polarize(tree)
    has_flat = any(n.mark is Polarity.FLAT for n in tree.nodes())
    assert not has_flat  # this fixture is FLAT-free
    before = marks_of(tree)
    negate_subtree(tree)
    negate_subtree(tree)
    assert marks_of(tree) == before



# ------------------------------------------------------------ lazy = eager

def _preorder(tree, excluded=None):
    out, stack = [], [tree]
    while stack:
        n = stack.pop()
        if n is not excluded:
            out.append(n)
            if n.left is not None:
                stack += (n.right, n.left)
    return out


def test_operator_sequences_match_eager_rewrites():
    # The reference keeps every mark in a dict and rewrites each operator's
    # whole scope; reading any subtree through nodes(), between operators,
    # must agree with it.
    flat = lambda _mark: Polarity.FLAT  # noqa: E731
    ops = [
        (negate_subtree, False, Polarity.flipped),
        (equalize_subtree, False, flat),
        (topdown_negation, True, Polarity.flipped),
        (topdown_equalization, True, flat),
    ]
    rng = random.Random(2718)
    for _ in range(300):
        tree = random_marked_tree(rng, rng.randint(1, 7))
        everything = _preorder(tree)
        expected = {id(n): n.mark for n in everything}
        for _step in range(rng.randint(1, 12)):
            target = rng.choice(everything)
            op, topdown, rewrite = rng.choice(ops)
            if topdown and target.parent is None:
                continue
            op(target)
            scope = _preorder(target.parent, target) if topdown else _preorder(target)
            for n in scope:
                expected[id(n)] = rewrite(expected[id(n)])
            if rng.random() < 0.3:
                sub = rng.choice(everything)
                assert marks_of(sub) == [expected[id(n)] for n in _preorder(sub)]
        assert marks_of(tree) == [expected[id(n)] for n in everything]


# ------------------------------------------------------------ the monoid
# The marks read as operators: UP is the identity, DOWN flips, FLAT
# flattens; `op * mark` applies an operator and `op * op` composes two.

def test_product_table():
    UP, DOWN, FLAT = Polarity.UP, Polarity.DOWN, Polarity.FLAT
    for mark in Polarity:
        assert UP * mark is mark
        assert DOWN * mark is mark.flipped()
        assert FLAT * mark is FLAT
    assert DOWN * DOWN is UP


def test_identity_and_absorbing_elements():
    for mark in Polarity:
        assert mark * Polarity.UP is mark
        assert mark * Polarity.FLAT is Polarity.FLAT


def test_product_commutes_and_associates():
    for a in Polarity:
        for b in Polarity:
            assert a * b is b * a
            for c in Polarity:
                assert (a * b) * c is a * (b * c)
