import io
import random
import sys

import pytest

from udpolarity import (
    BinaryDepTree,
    DependencyGraph,
    MarkError,
    Polarity,
    RelationHierarchy,
    Token,
    ValidationError,
    binarize,
    load_lexicon,
    parse_conllu,
    polarize,
    project_to_tokens,
    render,
    serialize_conllu,
    to_sexpression,
)
from udpolarity.cli import main
from udpolarity.polarize import DETERMINER_RELATIONS, _Phrases

from .conftest import (
    ALL_DOGS_EAT_APPLES,
    DATA,
    NO_STUDENT_REFUSED,
    annotate,
    conllu_block,
    cyclic_garbage,
    graph_of,
    mark_names,
    random_graph,
    reference_profile,
    workloads,
)

UP, DOWN, FLAT = Polarity.UP, Polarity.DOWN, Polarity.FLAT


def inline(annotated):
    from udpolarity import render_inline

    return render_inline(annotated)


# ---------------------------------------------------------------- polarize

def test_polarize_all_dogs_eat_apples():
    ann = annotate(ALL_DOGS_EAT_APPLES)
    assert inline(ann) == "All↑ dogs↓ eat↑ apples↑"


def test_polarize_single_leaf():
    ann = annotate([(1, "Run", "run", "VERB", 0, "root")])
    assert inline(ann) == "Run↑"


def test_polarize_triple_negation_fixture():
    # frozen hand-derivation: three downward operators stack over 'shoes'
    ann = annotate(NO_STUDENT_REFUSED)
    assert inline(ann) == "No↑ student↓ refused↓ to↑ dance↑ without↑ shoes↓"


def test_polarize_marks_every_node(mini_corpus):
    for g in mini_corpus:
        tree = binarize(g)
        polarize(tree)
        assert all(n.mark is not None for n in tree.nodes())


def test_polarize_changes_only_marks(mini_corpus):
    for g in mini_corpus:
        tree = binarize(g)
        shape_before = to_sexpression(tree)
        values_before = [n.val for n in tree.nodes()]
        polarize(tree)
        values_after = [n.val for n in tree.nodes()]
        assert values_before == values_after
        stripped = (
            to_sexpression(tree).replace("^", "").replace(" v", "").replace("=", "")
        )
        assert stripped == shape_before


def test_polarize_twice_is_mark_error(mini_corpus):
    tree = binarize(mini_corpus[0])
    polarize(tree)
    before = to_sexpression(tree)
    with pytest.raises(MarkError, match="polarized already"):
        polarize(tree)
    assert to_sexpression(tree) == before


def test_polarize_deterministic(mini_corpus):
    outputs = []
    for _ in range(3):
        run = []
        for g in parse_conllu(serialize_conllu(mini_corpus)):
            tree = binarize(g)
            polarize(tree)
            run.append(to_sexpression(tree))
        outputs.append(run)
    assert outputs[0] == outputs[1] == outputs[2]


# ---------------------------------------------------------------- subjects

def test_no_cat_flies_tree_marks():
    g = graph_of(
        [
            (1, "No", "no", "DET", 2, "det"),
            (2, "cat", "cat", "NOUN", 3, "nsubj"),
            (3, "flies", "fly", "VERB", 0, "root"),
        ]
    )
    tree = binarize(g)
    polarize(tree)
    assert to_sexpression(tree) == "(nsubj v (det^ No^ cat v) flies v)"


def test_a_dog_runs_all_up():
    ann = annotate(
        [
            (1, "A", "a", "DET", 2, "det"),
            (2, "dog", "dog", "NOUN", 3, "nsubj"),
            (3, "runs", "run", "VERB", 0, "root"),
        ]
    )
    assert mark_names(ann) == ["UP", "UP", "UP"]


def test_premarked_root_inherits_down():
    g = graph_of(ALL_DOGS_EAT_APPLES)
    tree = binarize(g)
    tree.mark = DOWN
    polarize(tree)
    # the obj side inherits the antitone context wholesale
    assert tree.right.mark is DOWN
    assert tree.right.right.mark is DOWN  # eat


# ---------------------------------------------------------------- clause mods

def test_relative_clause_under_every_flips():
    ann = annotate(
        [
            (1, "Every", "every", "DET", 2, "det"),
            (2, "dog", "dog", "NOUN", 8, "nsubj:pass"),
            (3, "who", "who", "PRON", 4, "nsubj"),
            (4, "likes", "like", "VERB", 2, "acl:relcl"),
            (5, "most", "most", "DET", 6, "det"),
            (6, "cats", "cat", "NOUN", 4, "obj"),
            (7, "was", "be", "AUX", 8, "aux:pass"),
            (8, "chased", "chase", "VERB", 0, "root"),
        ]
    )
    by_form = {tok.form: mark for tok, mark in ann.tokens}
    assert by_form["who"] is DOWN
    assert by_form["likes"] is DOWN
    assert by_form["most"] is DOWN
    assert by_form["cats"] is FLAT
    assert by_form["dog"] is DOWN
    assert by_form["chased"] is UP


def test_relative_clause_under_flat_head_equalizes():
    # "The dog who barks ..." : 'the' makes dog FLAT, clause follows suit
    ann = annotate(
        [
            (1, "The", "the", "DET", 2, "det"),
            (2, "dog", "dog", "NOUN", 5, "nsubj"),
            (3, "who", "who", "PRON", 4, "nsubj"),
            (4, "barks", "bark", "VERB", 2, "acl:relcl"),
            (5, "ran", "run", "VERB", 0, "root"),
        ]
    )
    by_form = {tok.form: mark for tok, mark in ann.tokens}
    assert by_form["dog"] is FLAT
    assert by_form["who"] is FLAT
    assert by_form["barks"] is FLAT
    assert by_form["ran"] is UP


def test_conditional_negates_antecedent_only():
    ann = annotate(
        [
            (1, "If", "if", "SCONJ", 3, "mark"),
            (2, "you", "you", "PRON", 3, "nsubj"),
            (3, "smoke", "smoke", "VERB", 5, "advcl"),
            (4, "you", "you", "PRON", 5, "nsubj"),
            (5, "cough", "cough", "VERB", 0, "root"),
        ]
    )
    assert inline(ann) == "If↑ you↓ smoke↓ you↑ cough↑"


def test_markers_without_a_lemma_read_their_form():
    # tokens built by hand may have no lemma (serialize_conllu writes "_"):
    # the mark rule then reads the form, as the complement rule does
    for marker, expected in (("that", "said↑ that↑ rains↑"), ("if", "said↑ if↑ rains↓")):
        graph = DependencyGraph([Token(1, "said", None, "VERB", 0, "root"),
                                 Token(2, marker, None, "SCONJ", 3, "mark"),
                                 Token(3, "rains", None, "VERB", 1, "ccomp")])
        tree = binarize(graph)
        polarize(tree)
        assert inline(project_to_tokens(tree, graph)) == expected


# ---------------------------------------------------------------- determiners

def test_every_dog():
    ann = annotate(
        [
            (1, "every", "every", "DET", 2, "det"),
            (2, "dog", "dog", "NOUN", 0, "root"),
        ]
    )
    assert inline(ann) == "every↑ dog↓"


def test_the_rabbit():
    ann = annotate(
        [
            (1, "the", "the", "DET", 2, "det"),
            (2, "rabbit", "rabbit", "NOUN", 0, "root"),
        ]
    )
    assert inline(ann) == "the↑ rabbit="


def test_no_in_subject_flips_clause():
    ann = annotate(
        [
            (1, "No", "no", "DET", 2, "det"),
            (2, "cat", "cat", "NOUN", 3, "nsubj"),
            (3, "flies", "fly", "VERB", 0, "root"),
        ]
    )
    assert inline(ann) == "No↑ cat↓ flies↓"


def test_unknown_determiner_defaults_to_existential():
    ann = annotate(
        [
            (1, "yonder", "yonder", "DET", 2, "det"),
            (2, "hills", "hill", "NOUN", 3, "nsubj"),
            (3, "glow", "glow", "VERB", 0, "root"),
        ]
    )
    assert mark_names(ann) == ["UP", "UP", "UP"]


def test_bare_scalar_number_reads_at_least():
    # pinned behavior: bare NUM under nummod flips against its context
    ann = annotate(
        [
            (1, "A", "a", "DET", 2, "det"),
            (2, "dog", "dog", "NOUN", 3, "nsubj"),
            (3, "ate", "eat", "VERB", 0, "root"),
            (4, "2", "2", "NUM", 6, "nummod"),
            (5, "rotten", "rotten", "ADJ", 6, "amod"),
            (6, "biscuits", "biscuit", "NOUN", 3, "obj"),
        ]
    )
    by_form = {tok.form: mark for tok, mark in ann.tokens}
    assert by_form["2"] is DOWN
    assert by_form["rotten"] is UP
    assert by_form["biscuits"] is UP


# ---------------------------------------------------------------- complements

def test_refused_to_go():
    g = graph_of(
        [
            (1, "refused", "refuse", "VERB", 0, "root"),
            (2, "to", "to", "PART", 3, "mark"),
            (3, "go", "go", "VERB", 1, "xcomp"),
        ]
    )
    tree = binarize(g)
    polarize(tree)
    assert to_sexpression(tree) == "(xcomp^ refused^ (mark v to v go v))"


def test_forgot_to_attend():
    ann = annotate(
        [
            (1, "Every", "every", "DET", 2, "det"),
            (2, "member", "member", "NOUN", 3, "nsubj"),
            (3, "forgot", "forget", "VERB", 0, "root"),
            (4, "to", "to", "PART", 5, "mark"),
            (5, "attend", "attend", "VERB", 3, "xcomp"),
            (6, "the", "the", "DET", 7, "det"),
            (7, "meeting", "meeting", "NOUN", 5, "obj"),
        ]
    )
    assert inline(ann) == "Every↑ member↓ forgot↑ to↓ attend↓ the↓ meeting="


def test_non_implicative_verb_no_flip():
    ann = annotate(
        [
            (1, "wanted", "want", "VERB", 0, "root"),
            (2, "to", "to", "PART", 3, "mark"),
            (3, "go", "go", "VERB", 1, "xcomp"),
        ]
    )
    assert mark_names(ann) == ["UP", "UP", "UP"]


# ---------------------------------------------------------------- word rules

def test_not_flips_modified_constituent():
    ann = annotate(
        [
            (1, "The", "the", "DET", 2, "det"),
            (2, "market", "market", "NOUN", 5, "nsubj"),
            (3, "is", "be", "AUX", 5, "cop"),
            (4, "not", "not", "PART", 5, "advmod"),
            (5, "impossible", "impossible", "ADJ", 0, "root"),
            (6, "to", "to", "PART", 7, "mark"),
            (7, "navigate", "navigate", "VERB", 5, "xcomp"),
        ]
    )
    by_form = {tok.form: mark for tok, mark in ann.tokens}
    assert by_form["The"] is UP
    assert by_form["market"] is FLAT
    assert by_form["not"] is UP
    assert by_form["impossible"] is DOWN
    assert by_form["to"] is UP
    assert by_form["navigate"] is UP


def test_less_than_5_people_ran():
    ann = annotate(
        [
            (1, "Less", "less", "ADV", 3, "advmod"),
            (2, "than", "than", "ADP", 1, "fixed"),
            (3, "5", "5", "NUM", 4, "nummod"),
            (4, "people", "people", "NOUN", 5, "nsubj"),
            (5, "ran", "run", "VERB", 0, "root"),
        ]
    )
    assert inline(ann) == "Less↑ than↑ 5↑ people↓ ran↓"


def test_word_rule_noop_for_plain_word(lexicon):
    g = graph_of(
        [
            (1, "ran", "run", "VERB", 0, "root"),
            (2, "fast", "fast", "ADV", 1, "advmod"),
        ]
    )
    tree = binarize(g)
    polarize(tree, lexicon)
    assert mark_names(project_to_tokens(tree, g)) == ["UP", "UP"]


def test_word_rule_fires_for_not(lexicon):
    g = graph_of(
        [
            (1, "did", "do", "AUX", 3, "aux"),
            (2, "not", "not", "PART", 3, "advmod"),
            (3, "run", "run", "VERB", 0, "root"),
        ]
    )
    tree = binarize(g)
    polarize(tree)
    by_form = {tok.form: mark for tok, mark in project_to_tokens(tree, g).tokens}
    assert by_form["run"] is DOWN
    assert by_form["not"] is UP


def test_more_dogs_than_cats_sit():
    ann = annotate(
        [
            (1, "More", "more", "DET", 2, "det"),
            (2, "dogs", "dog", "NOUN", 5, "nsubj"),
            (3, "than", "than", "ADP", 4, "case"),
            (4, "cats", "cat", "NOUN", 1, "nmod"),
            (5, "sit", "sit", "VERB", 0, "root"),
        ]
    )
    assert inline(ann) == "More↑ dogs↑ than↑ cats↓ sit="


def test_object_negation_quantifier_flips_subject():
    # "no" in object position: the predicate side resolves antitone, and the
    # subject root mark flips before the subject is polarized
    ann = annotate(
        [
            (1, "Dogs", "dog", "NOUN", 2, "nsubj"),
            (2, "eat", "eat", "VERB", 0, "root"),
            (3, "no", "no", "DET", 4, "det"),
            (4, "apples", "apple", "NOUN", 2, "obj"),
        ]
    )
    assert inline(ann) == "Dogs↓ eat↓ no↑ apples↓"


def test_object_exact_quantifier_flattens_clause():
    ann = annotate(
        [
            (1, "Dogs", "dog", "NOUN", 2, "nsubj"),
            (2, "eat", "eat", "VERB", 0, "root"),
            (3, "exactly", "exactly", "ADV", 4, "advmod"),
            (4, "5", "5", "NUM", 5, "nummod"),
            (5, "biscuits", "biscuit", "NOUN", 2, "obj"),
        ]
    )
    by_form = {tok.form: mark for tok, mark in ann.tokens}
    assert by_form["biscuits"] is FLAT
    assert by_form["eat"] is FLAT
    assert by_form["Dogs"] is FLAT


def test_negation_determiner_at_root_does_not_crash():
    ann = annotate(
        [
            (1, "No", "no", "DET", 2, "det"),
            (2, "dogs", "dog", "NOUN", 0, "root"),
        ]
    )
    assert inline(ann) == "No↑ dogs↓"


def test_clause_initial_advcl_refines_to_sentential():
    g = graph_of(
        [
            (1, "If", "if", "SCONJ", 3, "mark"),
            (2, "you", "you", "PRON", 3, "nsubj"),
            (3, "smoke", "smoke", "VERB", 5, "advcl"),
            (4, "you", "you", "PRON", 5, "nsubj"),
            (5, "cough", "cough", "VERB", 0, "root"),
        ]
    )
    assert binarize(g).val == "advcl-sent"


def test_clause_initial_advmod_refines_to_sentential():
    direct = [
        (1, "Today", "today", "ADV", 3, "advmod"),
        (2, "dogs", "dog", "NOUN", 3, "nsubj"),
        (3, "ran", "run", "VERB", 0, "root"),
    ]
    # the clause-initial word is a dependent of the advmod
    grandchild = [
        (1, "Very", "very", "ADV", 2, "advmod"),
        (2, "often", "often", "ADV", 4, "advmod"),
        (3, "dogs", "dog", "NOUN", 4, "nsubj"),
        (4, "ran", "run", "VERB", 0, "root"),
    ]
    for rows in (direct, grandchild):
        assert binarize(graph_of(rows)).val == "advmod-sent"


def test_clause_initial_advcl_below_the_root_stays_plain():
    g = graph_of(
        [
            (1, "If", "if", "SCONJ", 2, "mark"),
            (2, "asked", "ask", "VERB", 4, "advcl"),
            (3, "dogs", "dog", "NOUN", 4, "nsubj"),
            (4, "said", "say", "VERB", 6, "ccomp"),
            (5, "cats", "cat", "NOUN", 6, "nsubj"),
            (6, "think", "think", "VERB", 0, "root"),
        ]
    )
    tree = binarize(g)
    labels = [n.val for n in tree.nodes() if not n.is_leaf]
    assert "advcl" in labels
    assert "advcl-sent" not in labels


def test_medial_advmod_stays_plain():
    g = graph_of(
        [
            (1, "dogs", "dog", "NOUN", 3, "nsubj"),
            (2, "never", "never", "ADV", 3, "advmod"),
            (3, "ran", "run", "VERB", 0, "root"),
        ]
    )
    assert binarize(g).val == "nsubj"


# ---------------------------------------------------------------- regression

def test_double_negation_regression():
    ann = annotate(
        [
            (1, "No", "no", "DET", 2, "det"),
            (2, "newspapers", "newspaper", "NOUN", 5, "nsubj"),
            (3, "did", "do", "AUX", 5, "aux"),
            (4, "not", "not", "PART", 5, "advmod"),
            (5, "report", "report", "VERB", 0, "root"),
            (6, "no", "no", "DET", 8, "det"),
            (7, "bad", "bad", "ADJ", 8, "amod"),
            (8, "news", "news", "NOUN", 5, "obj"),
        ]
    )
    by_id = {tok.id: mark for tok, mark in ann.tokens}
    assert by_id[5] is DOWN  # report
    assert by_id[7] is DOWN  # bad
    assert by_id[8] is DOWN  # news
    assert by_id[6] is UP  # final 'no'


# ---------------------------------------------------------------- projection

def test_project_to_tokens_figure_tree():
    ann = annotate(ALL_DOGS_EAT_APPLES)
    assert mark_names(ann) == ["UP", "DOWN", "UP", "UP"]


def test_project_single_leaf():
    ann = annotate([(1, "Run", "run", "VERB", 0, "root")])
    assert len(ann.tokens) == 1
    assert ann.tokens[0][1] is UP


def test_project_table_sentence_more_than():
    ann = annotate(
        [
            (1, "More", "more", "DET", 2, "det"),
            (2, "dogs", "dog", "NOUN", 5, "nsubj"),
            (3, "than", "than", "ADP", 4, "case"),
            (4, "cats", "cat", "NOUN", 1, "nmod"),
            (5, "sit", "sit", "VERB", 0, "root"),
        ]
    )
    assert mark_names(ann) == ["UP", "UP", "UP", "DOWN", "FLAT"]


def test_punctuation_is_unscored():
    ann = annotate(
        [
            (1, "Run", "run", "VERB", 0, "root"),
            (2, "!", "!", "PUNCT", 1, "punct"),
        ]
    )
    assert mark_names(ann) == ["UP", None]


def test_project_unmarked_leaf_is_error():
    g = graph_of(ALL_DOGS_EAT_APPLES)
    tree = binarize(g)
    with pytest.raises(MarkError):
        project_to_tokens(tree, g)


def fresh_leaves(tree):
    """The leaves left to right, by a stack walk of its own."""
    out, stack = [], [tree]
    while stack:
        node = stack.pop()
        if node.left is None:
            out.append(node)
        else:
            stack += (node.right, node.left)
    return tuple(out)


def sample_texts():
    """The mini corpus, every 50th corpus-pool sentence and the deep ladder,
    as CoNLL-U texts."""
    texts = [(DATA / "mini_corpus.conllu").read_text("utf-8")]
    texts += [workloads.corpus_pool_block(i) for i in range(0, workloads.CORPUS_POOL, 50)]
    texts += [
        workloads.deep_block(workloads.deep_key(kind, n, 0))
        for kind in workloads.DEEP_KINDS
        for n, _count in workloads.DEEP_LADDER
    ]
    return texts


def test_polarize_leaves_the_roots_leaves_cached():
    # the final walk of polarize() meets every leaf left to right and keeps
    # them, so project_to_tokens walks the tree no more; it drops every
    # parent link below the root on the way
    lexicon = load_lexicon()
    for graph in [graph for text in sample_texts() for graph in parse_conllu(text)]:
        tree = binarize(graph)
        assert tree._leaves is None
        polarize(tree, lexicon)
        assert tree._leaves == fresh_leaves(tree)
        assert tree.leaves() is tree._leaves
        assert [node.parent for node in tree.nodes()] == [None] * (2 * tree.size - 1)


def test_the_library_path_leaves_no_cyclic_garbage():
    # a polarized tree holds no reference cycle, so reference counting
    # frees each sentence's objects: with the cyclic collector off, it
    # finds nothing after the whole path, no tree node and no token
    texts = sample_texts()
    lexicon = load_lexicon()
    hierarchy = RelationHierarchy.default()

    def library_path():
        for text in texts:
            for graph in parse_conllu(text):
                tree = polarize(binarize(graph, hierarchy), lexicon)
                render(project_to_tokens(tree, graph), "sexpr")

    assert cyclic_garbage(library_path) == (None, 0, False)


def test_subtree_polarized_alone_keeps_no_leaves():
    tree = binarize(parse_conllu(workloads.deep_block("neg-25-0"))[0])
    subtree = tree.right
    assert subtree.left is not None and subtree.parent is tree
    polarize(subtree)
    assert subtree.parent is tree
    assert subtree._leaves is None and tree._leaves is None
    assert subtree.leaves() == fresh_leaves(subtree)
    assert subtree._leaves is None


# ---------------------------------------------------------------- random trees

def test_polarize_total_on_random_trees():
    rng = random.Random(20240817)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 15))
        tree = binarize(g)
        vals_before = [n.val for n in tree.nodes()]
        polarize(tree)
        assert all(n.mark is not None for n in tree.nodes())
        assert [n.val for n in tree.nodes()] == vals_before


# ---------------------------------------------------------------- phrase scan

def reference_scan(det_node, lexicon, tokens_by_id):
    """The quantifier-phrase scan as it read every token under the
    dependent: (profile, covered ids), or (None, set())."""
    left_tokens = sorted((leaf.val for leaf in det_node.left.leaves()), key=lambda t: t.id)
    seq = list(left_tokens)
    i = seq[0].id - 1
    while i >= 1 and len(seq) - len(left_tokens) < 6:
        tok = tokens_by_id.get(i)
        if tok is None or tok.upos in {"NOUN", "PROPN", "VERB", "AUX", "PUNCT"}:
            break
        seq.insert(0, tok)
        i -= 1
    head_min = det_node.right.min_id
    max_len = lexicon.max_phrase_len
    for anchor in range(len(seq)):
        for span_len in range(min(max_len, len(seq) - anchor), 0, -1):
            span = seq[anchor : anchor + span_len]
            if span[-1].id - span[0].id != span_len - 1:
                continue
            profile = reference_profile(lexicon, span)
            if profile is None:
                continue
            # the tokens whose ids lie between the span and the head
            gap = [t for j, t in tokens_by_id.items() if span[-1].id < j < head_min]
            if any(t.upos in {"NOUN", "PROPN", "VERB", "AUX", "ADJ", "PUNCT"} for t in gap):
                continue
            covered = {t.id for t in span} | {t.id for t in gap}
            return profile, covered
    return None, set()


# the surface is drawn from whole quantifier phrases, pieces of them and
# other words; upos are mostly those of function words, so that prefixes
# reach the 6-token limit
SCAN_PHRASES = ["all of the", "at most 2", "at least 3", "exactly two", "exactly 2", "less than",
                "more", "2 or more", "no", "every", "the", "a few", "of", "at", "foo", "dogs bark"]
SCAN_UPOS = ["DET"] * 4 + ["ADP", "ADV", "PART", "PRON", "ADJ",
                           "NOUN", "VERB", "AUX", "PROPN", "PUNCT"]
SCAN_RELATIONS = ["det"] * 4 + ["nummod"] * 2 + ["det:predet", "nsubj", "obj", "advmod",
                                                 "case", "amod", "nmod", "fixed"]
# phrases of three words, and one that starts with a number
EXTRA_QUANTIFIERS = "all of the\tdown\tup\tuniversal\nat least n\tup\tup\texistential\n" \
                    "n or more\tup\tup\texistential\n"


def scan_heads(rng, n, projective):
    """Heads (0 for the root) of a random tree over positions 1..n: random
    arc-standard transitions (projective) or each token under a random
    earlier one."""
    if not projective:
        return [0] + [rng.randint(1, i - 1) for i in range(2, n + 1)]
    heads = [0] * n
    stack, following = [], list(range(1, n + 1))
    while following or len(stack) > 1:
        if len(stack) < 2 or (following and rng.random() < 0.5):
            stack.append(following.pop(0))
        else:
            dependent = stack.pop(-2 if rng.random() < 0.5 else -1)
            heads[dependent - 1] = stack[-1]
    return heads


def scan_graph(rng):
    """A random tree whose surface is rich in quantifier phrases. A
    projective tree keeps its positions as surface order; other trees
    shuffle their ids."""
    words = []
    while len(words) < 2 or rng.random() < 0.75:
        words += rng.choice(SCAN_PHRASES).split()
    n = len(words)
    projective = rng.random() < 0.5
    at = list(range(1, n + 1)) if projective else rng.sample(range(1, n + 1), n)
    tokens = []
    for pos, head in enumerate(scan_heads(rng, n, projective)):
        form = words[at[pos] - 1]
        upos = "NUM" if form in ("2", "3", "two") else rng.choice(SCAN_UPOS)
        tokens.append(Token(
            id=at[pos], form=form, lemma=form, upos=upos,
            head=0 if head == 0 else at[head - 1],
            deprel="root" if head == 0 else rng.choice(SCAN_RELATIONS),
        ))
    graph = DependencyGraph(tokens=sorted(tokens, key=lambda t: t.id))
    assert len(graph.order) == n  # a tree: every token hangs from the root
    return graph


def test_phrase_scan_matches_reference_on_random_trees(tmp_path):
    extra = tmp_path / "extra.tsv"
    extra.write_text(EXTRA_QUANTIFIERS, encoding="utf-8")
    lexicons = [load_lexicon(), load_lexicon(quantifier_paths=[extra])]
    hierarchy = RelationHierarchy.default()
    rng = random.Random(11)
    scans = found = 0
    for k in range(20_000):
        lexicon = lexicons[k % 2]
        tree = binarize(scan_graph(rng), hierarchy)
        tokens_by_id = {leaf.val.id: leaf.val for leaf in tree.leaves()}
        phrases = _Phrases(tree, lexicon)
        covered = set()
        for node in tree.nodes():
            if node.val in DETERMINER_RELATIONS:
                result = phrases.scan(node)
                got = (None, set()) if result is None else (
                    result[0], {i for i in tokens_by_id if result[1] <= i <= result[2]})
                expected = reference_scan(node, lexicon, tokens_by_id)
                assert got == expected, to_sexpression(tree)
                if result is not None:
                    phrases.suppress(result[1], result[2])
                covered |= expected[1]
                scans += 1
                found += result is not None
        # the cover, by id and by leaf position, and what covers() reads
        assert cover_of(phrases) == covered
        leaves = tree.leaves()
        assert {leaves[p].val.id for p, q in enumerate(phrases.open) if p != q} == covered
        for node in tree.nodes():
            assert phrases.covers(node) == ({leaf.val.id for leaf in node.leaves()} <= covered)
    assert scans > 20_000 and 0.2 < found / scans < 0.8, (scans, found)


SPARSE_IDS = conllu_block([(1, "the", "the", "DET", 50_000_000, "det"),
                           (50_000_000, "dogs", "dog", "NOUN", 0, "root")], sent_id="far")


def test_ids_that_skip_are_refused(tmp_path):
    # ids run 1..n: a sentence whose ids skip is invalid, as a cycle is
    message = "sentence far: missing token id 2 (ids run 1..2)"
    with pytest.raises(ValidationError) as info:
        parse_conllu(SPARSE_IDS)
    assert str(info.value) == message
    path = tmp_path / "far.conllu"
    path.write_text(SPARSE_IDS + "\n" + conllu_block([(1, "dogs", "dog", "NOUN", 0, "root")]),
                    encoding="utf-8")
    for lenient, expected in (([], (1, "", f"error: {message}\n")),
                              (["--lenient"], (0, "1\tdogs\tNOUN\t^\n\n",
                                               f"skipping sentence: {message}\n"))):
        out, err = io.StringIO(), io.StringIO()
        code = main(["polarize", "--format", "tsv", *lenient, str(path)], out=out, err=err)
        assert (code, out.getvalue(), err.getvalue()) == expected


@pytest.mark.parametrize("ids", [(1, 3), (3, 1), (0, 1), (-1, 2), (2, 2)])
def test_hand_built_ids_that_are_not_1_to_n_are_a_mark_error(lexicon, ids):
    # a tree built without the parser: its determiner must not read past
    # the list it indexes by id, or wrap round to its end
    the, dogs = (BinaryDepTree(Token(id=i, form=form, lemma=form, upos=upos, head=0, deprel="_"))
                 for i, form, upos in zip(ids, ("the", "dogs"), ("DET", "NOUN")))
    bad = next(i for i in ids if not 0 < i <= 2 or ids.count(i) > 1)
    with pytest.raises(MarkError, match=rf"^token id {bad}: the ids of a sentence must run 1\.\.2$"):
        polarize(BinaryDepTree("det", the, dogs), lexicon)


def cover_of(phrases):
    """The ids a sentence's quantifier phrases cover so far."""
    return set() if phrases is None else {i for i, j in enumerate(phrases.uncovered) if i != j}


def reference_word_rule(node, lexicon, suppressed=frozenset(), negate=None):
    """The word rule of the advmod/case and mark rules as it was before it
    passed subtrees known to be suppressed: it reads the whole dependent
    while every leaf it has read is in `suppressed`, the ids the phrases
    cover. `negate` stands in for negate_subtree."""
    parent = node.parent
    if parent is None or node is not parent.left:
        return False
    longest = lexicon.longest_negation
    tokens = []
    all_suppressed = bool(suppressed)
    stack = [node]
    while stack and (all_suppressed or len(tokens) <= longest):
        item = stack.pop()
        if item.left is not None:
            stack += (item.left, item.right)
        else:
            tokens.append(item.val)
            all_suppressed = all_suppressed and item.val.id in suppressed
    if all_suppressed:
        return False
    label = parent.val
    if label in {"advmod", "advmod-sent", "case"} and len(tokens) <= longest:
        tokens.sort(key=lambda t: t.id)
        if lexicon.is_negation_phrase([t.form for t in tokens]):
            negate(parent.right)
            return True
    if label == "mark":
        head = node.head
        if lexicon.is_conditional(head.form) or lexicon.is_conditional(head.lemma):
            negate(parent.right)
            return True
    return False


WORD_RULE_WORDS = ["the", "no", "every", "at", "most", "least", "2", "not", "never",
                   "without", "than", "less", "if", "very", "foo", "dogs"]
WORD_RULE_UPOS = ["DET", "DET", "ADV", "ADP", "SCONJ", "NOUN"]
WORD_RULE_RELATIONS = ["det"] * 3 + ["advmod"] * 4 + ["nummod", "case", "mark", "nsubj", "obj"]


def word_rule_graph(rng):
    """A random tree of mostly chains, each token under the next one or a
    later one, of determiners and adverbs: nests whose words determiner
    phrases cover. Half of the trees shuffle their ids."""
    n = rng.randint(2, 60)
    at = list(range(1, n + 1))
    if rng.random() < 0.5:
        rng.shuffle(at)
    tokens = []
    for i in range(1, n + 1):
        head = 0 if i == n else (i + 1 if rng.random() < 0.7 else rng.randint(i + 1, n))
        form = rng.choice(WORD_RULE_WORDS)
        tokens.append(Token(
            id=at[i - 1], form=form, lemma=form,
            upos="NUM" if form == "2" else rng.choice(WORD_RULE_UPOS),
            head=0 if head == 0 else at[head - 1],
            deprel="root" if head == 0 else rng.choice(WORD_RULE_RELATIONS),
        ))
    return DependencyGraph(tokens=sorted(tokens, key=lambda t: t.id))


def test_word_rule_matches_reference_on_random_trees(lexicon, monkeypatch):
    # the reference advmod/case and mark rules hand their dependent to
    # reference_word_rule once both children are polarized
    polarize_module = sys.modules["udpolarity.polarize"]
    rules, react = polarize_module.RULES, polarize_module._react
    negate_subtree = polarize_module.negate_subtree
    rng = random.Random(12)
    calls = long_covered = 0

    def word_rule(run, node):
        nonlocal calls, long_covered
        dep, phrases = node.left, run.phrases
        calls += 1
        long_covered += (dep.size > lexicon.longest_negation
                         and phrases is not None and phrases.covers(dep))
        return reference_word_rule(dep, run.lexicon, cover_of(phrases), negate_subtree)

    def rule_adverbial(run, node):
        base = node.left.mark = node.right.mark = node.mark
        if node.right.left is not None:
            yield node.right
        if node.left.left is not None:
            yield node.left
        if not word_rule(run, node) and node.left.mark is not base:
            react(node.left, node.right)

    def rule_mark(run, node):
        node.left.mark = node.right.mark = node.mark
        if node.right.left is not None:
            yield node.right
        if node.left.left is not None:
            yield node.left
        word_rule(run, node)

    reference = {**dict.fromkeys(("advmod", "advmod-sent", "case"), rule_adverbial),
                 "mark": rule_mark}
    for _ in range(1500):
        graph = word_rule_graph(rng)
        marks = []
        for patch in (False, True):
            with monkeypatch.context() as patched:
                if patch:
                    for label, rule in reference.items():
                        patched.setitem(rules, label, rule)
                tree = binarize(graph)
                polarize(tree, lexicon)
                marks.append(project_to_tokens(tree, graph).tokens)
        assert marks[0] == marks[1], serialize_conllu([graph])
    # the nests hold dependents longer than any negation phrase that the
    # phrases cover whole
    assert calls > 10_000 and long_covered > 500, (calls, long_covered)
