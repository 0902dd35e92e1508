import hashlib

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

from .conftest import ALL_DOGS_EAT_APPLES, NO_STUDENT_REFUSED, graph_of


def leaf(form, tid, upos="NOUN"):
    from udpolarity import Token

    return BinaryDepTree(Token(id=tid, form=form, lemma=form.lower(), upos=upos, head=0, deprel="root"))


# ---------------------------------------------------------------- hierarchy

def test_default_hierarchy_has_exactly_44_entries():
    h = RelationHierarchy.default()
    assert len(h.levels) == 44


def test_hierarchy_orders_nsubj_above_obj():
    h = RelationHierarchy.default()
    assert h.level("nsubj") == 20
    assert h.level("obj") == 60
    assert h.level("conj-sent") == 0
    assert h.level("flat") == 100


def test_unknown_relation_gets_default_level():
    h = RelationHierarchy.default()
    assert h.level("punct") == 45
    assert h.level("vocative") == 45


# ---------------------------------------------------------------- refine

def test_refine_identity_for_non_conj():
    g = graph_of(ALL_DOGS_EAT_APPLES)
    eat = graph_root(g)
    dogs = g.token_by_id(2)
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
    assert refine_relation("conj", g.token_by_id(1), g.token_by_id(3), g) == "conj-n"


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
    assert refine_relation("conj", g.token_by_id(2), g.token_by_id(5), g) == "conj-sent"


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
    assert refine_relation("conj", g.token_by_id(2), g.token_by_id(5), g) == "conj-vp"


def test_refine_conj_adj_and_verb():
    g = graph_of(
        [
            (1, "big", "big", "ADJ", 0, "root"),
            (2, "and", "and", "CCONJ", 3, "cc"),
            (3, "red", "red", "ADJ", 1, "conj"),
            (4, "ran", "run", "VERB", 1, "conj"),
        ]
    )
    assert refine_relation("conj", g.token_by_id(1), g.token_by_id(3), g) == "conj-adj"
    assert refine_relation("conj", g.token_by_id(1), g.token_by_id(4), g) == "conj-vb"


# ---------------------------------------------------------------- sorting

def test_sort_children_by_level():
    g = graph_of(ALL_DOGS_EAT_APPLES)
    h = RelationHierarchy.default()
    dogs, apples = g.token_by_id(2), g.token_by_id(4)
    out = sort_children([("obj", apples), ("nsubj", dogs)], h)
    assert [rel for rel, _ in out] == ["nsubj", "obj"]


def test_sort_children_singleton():
    g = graph_of(ALL_DOGS_EAT_APPLES)
    h = RelationHierarchy.default()
    single = [("det", g.token_by_id(1))]
    assert sort_children(single, h) == single


def test_sort_children_tie_breaks_by_token_id():
    g = graph_of(
        [
            (1, "ran", "run", "VERB", 0, "root"),
            (2, "home", "home", "NOUN", 1, "obl"),
            (3, "today", "today", "NOUN", 1, "obl"),
        ]
    )
    h = RelationHierarchy.default()
    out = sort_children([("obl", g.token_by_id(3)), ("obl", g.token_by_id(2))], h)
    assert [t.id for _rel, t in out] == [2, 3]


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


def test_modifiers_left_heads_right():
    tree = binarize(graph_of(ALL_DOGS_EAT_APPLES))
    # the right spine from any internal node ends at that constituent's head
    assert tree.head_leaf().val.form == "eat"
    assert tree.left.head_leaf().val.form == "dogs"


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
        levels.append(h.level(node.val))
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
