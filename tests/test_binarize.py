import hashlib
import os
import pathlib
import random
import subprocess
import sys

from udpolarity import (
    RelationHierarchy,
    binarize,
    graph_root,
    polarize,
    refine_relation,
    sort_children,
    to_sexpression,
)
from udpolarity.binarize import BinaryDepTree

from .conftest import ALL_DOGS_EAT_APPLES, NO_STUDENT_REFUSED, graph_of, random_graph


def leaf(form, tid, upos="NOUN"):
    from udpolarity import Token

    return BinaryDepTree(Token(id=tid, form=form, lemma=form.lower(), upos=upos, head=0, deprel="root"))


# ---------------------------------------------------------------- hierarchy

def test_default_hierarchy_has_exactly_44_entries():
    h = RelationHierarchy.default()
    assert len(h.levels) == 44


def test_hierarchy_orders_nsubj_above_obj():
    h = RelationHierarchy.default()
    assert h.levels["nsubj"] == 20
    assert h.levels["obj"] == 60
    assert h.levels["conj-sent"] == 0
    assert h.levels["flat"] == 100


def test_unknown_relation_gets_default_level():
    # a label missing from the table sorts at level 45: level ties with
    # `x` at 45 fall to token ids on both sides
    h = RelationHierarchy.default()
    assert "punct" not in h.levels and "vocative" not in h.levels
    h = RelationHierarchy({**h.levels, "x": 45})
    rows = [(i, "w", "w", "X", int(i > 1), "dep" if i > 1 else "root") for i in range(1, 6)]
    cop, punct, x, vocative, aux = graph_of(rows).tokens
    out = sort_children([("cop", cop), ("punct", punct), ("x", x), ("vocative", vocative), ("aux", aux)], h)
    assert [rel for rel, _ in out] == ["aux", "punct", "x", "vocative", "cop"]


# ---------------------------------------------------------------- refine

def test_refine_identity_for_non_conj():
    g = graph_of(ALL_DOGS_EAT_APPLES)
    by_id = {t.id: t for t in g.tokens}
    eat = graph_root(g)
    dogs = by_id[2]
    assert refine_relation("nsubj", eat, dogs, g) == "nsubj"


def test_refine_conj_nouns():
    g = graph_of(
        [
            (1, "dogs", "dog", "NOUN", 4, "nsubj"),
            (2, "and", "and", "CCONJ", 3, "cc"),
            (3, "cats", "cat", "NOUN", 1, "conj"),
            (4, "sit", "sit", "VERB", 0, "root"),
        ]
    )
    by_id = {t.id: t for t in g.tokens}
    assert refine_relation("conj", by_id[1], by_id[3], g) == "conj-n"


def test_refine_conj_sent_when_both_have_subjects():
    g = graph_of(
        [
            (1, "dogs", "dog", "NOUN", 2, "nsubj"),
            (2, "ran", "run", "VERB", 0, "root"),
            (3, "and", "and", "CCONJ", 5, "cc"),
            (4, "cats", "cat", "NOUN", 5, "nsubj"),
            (5, "slept", "sleep", "VERB", 2, "conj"),
        ]
    )
    by_id = {t.id: t for t in g.tokens}
    assert refine_relation("conj", by_id[2], by_id[5], g) == "conj-sent"


def test_refine_conj_vp_when_conjunct_has_object():
    g = graph_of(
        [
            (1, "dogs", "dog", "NOUN", 2, "nsubj"),
            (2, "eat", "eat", "VERB", 0, "root"),
            (3, "food", "food", "NOUN", 2, "obj"),
            (4, "and", "and", "CCONJ", 5, "cc"),
            (5, "drink", "drink", "VERB", 2, "conj"),
            (6, "water", "water", "NOUN", 5, "obj"),
        ]
    )
    by_id = {t.id: t for t in g.tokens}
    assert refine_relation("conj", by_id[2], by_id[5], g) == "conj-vp"


def test_refine_conj_adj_and_verb():
    g = graph_of(
        [
            (1, "big", "big", "ADJ", 0, "root"),
            (2, "and", "and", "CCONJ", 3, "cc"),
            (3, "red", "red", "ADJ", 1, "conj"),
            (4, "ran", "run", "VERB", 1, "conj"),
        ]
    )
    by_id = {t.id: t for t in g.tokens}
    assert refine_relation("conj", by_id[1], by_id[3], g) == "conj-adj"
    assert refine_relation("conj", by_id[1], by_id[4], g) == "conj-vb"


# ---------------------------------------------------------------- sorting

def test_sort_children_by_level():
    g = graph_of(ALL_DOGS_EAT_APPLES)
    by_id = {t.id: t for t in g.tokens}
    h = RelationHierarchy.default()
    dogs, apples = by_id[2], by_id[4]
    out = sort_children([("obj", apples), ("nsubj", dogs)], h)
    assert [rel for rel, _ in out] == ["nsubj", "obj"]


def test_sort_children_singleton():
    g = graph_of(ALL_DOGS_EAT_APPLES)
    by_id = {t.id: t for t in g.tokens}
    h = RelationHierarchy.default()
    single = [("det", by_id[1])]
    assert sort_children(single, h) == single


def test_sort_children_tie_breaks_by_token_id():
    g = graph_of(
        [
            (1, "ran", "run", "VERB", 0, "root"),
            (2, "home", "home", "NOUN", 1, "obl"),
            (3, "today", "today", "NOUN", 1, "obl"),
        ]
    )
    by_id = {t.id: t for t in g.tokens}
    h = RelationHierarchy.default()
    out = sort_children([("obl", by_id[3]), ("obl", by_id[2])], h)
    assert [t.id for _rel, t in out] == [2, 3]


def test_binarize_orders_dependents_as_sort_children_does():
    # binarize sorts its own keys; each head's spine must read, top down,
    # as sort_children orders the same (label, token) pairs, whatever
    # order they come in
    rng = random.Random(20)
    h = RelationHierarchy.default()
    several = 0
    for _ in range(2000):
        graph = random_graph(rng, rng.randint(2, 25))
        tree = binarize(graph, h)
        stack = [tree]
        while stack:
            top = stack.pop()
            if top.left is None:
                continue
            stack += (top.left, top.right)
            if top.parent is not None and top is top.parent.right:
                continue  # inside a spine, not at its top
            spine = []
            node = top
            while node.left is not None:
                spine.append((node.val, node.left.head.val))
                node = node.right
            head = node.val
            assert sorted(t.id for _label, t in spine) == [
                t.id for t in graph.tokens if t.head == head.id
            ]
            shuffled = spine[:]
            rng.shuffle(shuffled)
            assert sort_children(shuffled, h) == spine
            several += len(spine) > 1
    assert several > 2000


# ---------------------------------------------------------------- binarize

def test_binarize_all_dogs_eat_apples():
    tree = binarize(graph_of(ALL_DOGS_EAT_APPLES))
    assert to_sexpression(tree) == "(nsubj (det All dogs) (obj eat apples))"


def test_binarize_single_token_is_lone_leaf():
    tree = binarize(graph_of([(1, "Run", "run", "VERB", 0, "root")]))
    assert tree.is_leaf
    assert to_sexpression(tree) == "Run"


def test_binarize_refused_sentence_structure():
    tree = binarize(graph_of(NO_STUDENT_REFUSED))
    assert tree.val == "nsubj"
    assert to_sexpression(tree.left) == "(det No student)"
    # internal structure keeps the dependent on the left ...
    xcomp = tree.right
    assert xcomp.val == "xcomp"
    assert xcomp.left.val == "mark"
    assert xcomp.right.val.form == "refused"
    # ... while the printed form orders children by surface position
    assert (
        to_sexpression(tree)
        == "(nsubj (det No student) (xcomp refused (mark to (obl dance (case without shoes)))))"
    )


def test_graph_that_is_not_a_tree_is_refused():
    # graphs built without the parser: an id 0 once made `order` grow
    # without end, and a repeated id raised KeyError. The child process
    # bounds the time and the memory such a run may take
    script = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))
from udpolarity import DependencyGraph, Token, ValidationError, binarize
for rows in (
    [(0, "the", "DET", 1, "det"), (1, "dogs", "NOUN", 0, "root")],
    [(1, "dogs", "NOUN", 0, "root"), (2, "the", "DET", 1, "det"), (2, "a", "DET", 1, "det")],
):
    try:
        binarize(DependencyGraph([Token(i, f, f, u, h, r) for i, f, u, h, r in rows]))
    except ValidationError as exc:
        print(exc)
"""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    child = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=20,
    )
    assert (child.returncode, child.stderr) == (0, "")
    assert child.stdout.splitlines() == [
        "sentence ?: token id 0 < 1",
        "sentence ?: duplicate token ids",
    ]


def test_modifiers_left_heads_right():
    tree = binarize(graph_of(ALL_DOGS_EAT_APPLES))
    # the right spine from any internal node ends at that constituent's head
    assert tree.head.val.form == "eat"
    assert tree.left.head.val.form == "dogs"


def test_subtree_slots_agree_with_walks():
    # min_id, max_id, size and head are filled bottom-up as a tree is
    # built; each must be what a walk of the finished subtree reads, and
    # a subtree's leaves must be the run of the root's leaves ending at
    # its head
    rng = random.Random(16)
    trees = [binarize(random_graph(rng, rng.randint(1, 40))) for _ in range(300)]
    trees += [
        leaf("dogs", 1),
        BinaryDepTree("det", leaf("the", 1), BinaryDepTree("amod", leaf("old", 2), leaf("dogs", 3))),
        BinaryDepTree("obj", BinaryDepTree("det", leaf("the", 4), leaf("food", 2)),
                      BinaryDepTree("nsubj", leaf("dogs", 3), leaf("eat", 1))),
    ]
    for tree in trees:
        leaves = tree.leaves()
        at = {item.val.id: p for p, item in enumerate(leaves)}
        for node in tree.nodes():
            spine = node
            while spine.left is not None:
                spine = spine.right
            ids = [item.val.id for item in node.leaves()]
            assert node.head is spine
            assert node.size == len(ids)
            assert (node.min_id, node.max_id) == (min(ids), max(ids))
            end = at[node.head.val.id] + 1
            assert leaves[end - node.size:end] == node.leaves()


def test_leaf_count_and_token_coverage(mini_corpus):
    for g in mini_corpus:
        tree = binarize(g)
        leaf_ids = sorted(l.val.id for l in tree.leaves())
        assert leaf_ids == [t.id for t in g.tokens]


def test_every_token_printed_exactly_once(mini_corpus):
    h = RelationHierarchy.default()
    for g in mini_corpus:
        sexpr = to_sexpression(binarize(g))
        stripped = sexpr.replace("(", " ").replace(")", " ").split()
        forms = [w for w in stripped if w not in h.levels]
        assert sorted(forms) == sorted(t.form for t in g.tokens)


def test_projective_sentence_prints_in_surface_order():
    sexpr = to_sexpression(binarize(graph_of(ALL_DOGS_EAT_APPLES)))
    words = [w for w in sexpr.replace("(", " ").replace(")", " ").split()
             if w not in ("nsubj", "det", "obj")]
    assert words == ["All", "dogs", "eat", "apples"]


def test_binarize_deterministic(mini_corpus):
    for g in mini_corpus:
        assert to_sexpression(binarize(g)) == to_sexpression(binarize(g))


def test_priority_ordering_on_spine():
    # composing one head: ancestors were split off earlier, so their
    # level-ids never exceed their descendants' on the right spine
    g = graph_of(
        [
            (1, "dogs", "dog", "NOUN", 2, "nsubj"),
            (2, "ate", "eat", "VERB", 0, "root"),
            (3, "apples", "apple", "NOUN", 2, "obj"),
            (4, "today", "today", "NOUN", 2, "obl"),
        ]
    )
    h = RelationHierarchy.default()
    tree = binarize(g, h)
    levels = []
    node = tree
    while not node.is_leaf:
        levels.append(h.levels[node.val])
        node = node.right
    assert levels == sorted(levels)


def test_unknown_relation_attaches_without_crashing():
    g = graph_of(
        [
            (1, "Hello", "hello", "INTJ", 2, "vocative"),
            (2, "run", "run", "VERB", 0, "root"),
            (3, "!", "!", "PUNCT", 2, "punct"),
        ]
    )
    tree = binarize(g)
    assert sorted(l.val.form for l in tree.leaves()) == ["!", "Hello", "run"]


# ---------------------------------------------------------------- sexpr text

def test_sexpression_with_marks():
    g = graph_of(ALL_DOGS_EAT_APPLES)
    tree = binarize(g)
    polarize(tree)
    assert to_sexpression(tree) == "(nsubj^ (det^ All^ dogs v) (obj^ eat^ apples^))"


# ---------------------------------------------------------------- drift guard

def test_hierarchy_file_checksum():
    from importlib import resources

    blob = resources.files("udpolarity.data").joinpath("hierarchy.tsv").read_bytes()
    assert hashlib.sha256(blob).hexdigest() == HIERARCHY_SHA256


HIERARCHY_SHA256 = "ce0db44954f99ed2841258e66c6da100959ca6c1c72de3188b5ff04d9db443ca"
