import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udpolarity import (
    ConlluError,
    DependencyGraph,
    Token,
    ValidationError,
    binarize,
    graph_root,
    load_lexicon,
    parse_conllu,
    polarize,
    project_to_tokens,
    render,
    serialize_conllu,
)

from .conftest import ALL_DOGS_EAT_APPLES, DATA, conllu_block, graph_of, workloads

ALL_DOGS_EAT_FOOD = """# text = All dogs eat food.
1\tAll\tall\tDET\t_\t_\t2\tdet\t_\t_
2\tdogs\tdog\tNOUN\t_\t_\t3\tnsubj\t_\t_
3\teat\teat\tVERB\t_\t_\t0\troot\t_\t_
4\tfood\tfood\tNOUN\t_\t_\t3\tobj\t_\t_
"""


def test_parse_four_token_sentence():
    graphs = parse_conllu(ALL_DOGS_EAT_FOOD)
    assert len(graphs) == 1
    g = graphs[0]
    assert [t.form for t in g.tokens] == ["All", "dogs", "eat", "food"]
    assert graph_root(g).form == "eat"
    edges = {(t.head, t.id, t.deprel) for t in g.tokens}
    assert (3, 2, "nsubj") in edges
    assert (2, 1, "det") in edges
    assert (3, 4, "obj") in edges
    assert g.sentence_text == "All dogs eat food."


def test_parse_empty_string():
    assert parse_conllu("") == []


def test_self_loop_is_validation_error():
    bad = "1\tRun\trun\tVERB\t_\t_\t0\troot\t_\t_\n2\tfast\tfast\tADV\t_\t_\t2\tadvmod\t_\t_\n"
    with pytest.raises(ValidationError):
        parse_conllu(bad)


def test_wrong_column_count_names_line():
    with pytest.raises(ConlluError, match="line 2"):
        parse_conllu("# text = x\n1\tRun\trun\n")


def test_non_integer_head_names_line():
    with pytest.raises(ConlluError, match="line 1"):
        parse_conllu("1\tRun\trun\tVERB\t_\t_\tx\troot\t_\t_\n")


def test_multi_root_names_sentence():
    bad = conllu_block(
        [(1, "a", "a", "X", 0, "root"), (2, "b", "b", "X", 0, "root")],
        sent_id="twin",
    )
    with pytest.raises(ValidationError, match="twin"):
        parse_conllu(bad)


def test_cycle_names_sentence():
    bad = conllu_block(
        [(1, "a", "a", "X", 0, "root"), (2, "b", "b", "X", 3, "dep"), (3, "c", "c", "X", 2, "dep")],
        sent_id="loop",
    )
    with pytest.raises(ValidationError, match="loop"):
        parse_conllu(bad)


def test_comment_keys_match_exactly():
    rows = "1\tHund\thund\tNOUN\t_\t_\t0\troot\t_\t_\n"
    text = "# sent_id = de-1\n# sent_id_orig = 77\n# text = Hund\n# text_en = dog\n" + rows
    (graph,) = parse_conllu(text)
    assert graph.sent_id == "de-1"
    assert graph.sentence_text == "Hund"
    looped = text.replace("\t0\troot", "\t1\troot")
    with pytest.raises(ValidationError, match="sentence de-1:"):
        parse_conllu(looped)


def test_lines_break_at_newline_only():
    # U+2028 is a line separator to str.splitlines, not to CoNLL-U
    rows = [(1, "a\u2028b", "ab", "NOUN", 2, "nsubj"), (2, "ran", "run", "VERB", 0, "root")]
    (graph,) = parse_conllu(conllu_block(rows))
    assert [t.form for t in graph.tokens] == ["a\u2028b", "ran"]


def test_crlf_text_parses():
    (graph,) = parse_conllu(ALL_DOGS_EAT_FOOD.replace("\n", "\r\n"))
    assert graph.sentence_text == "All dogs eat food."
    assert [(t.form, t.head, t.deprel) for t in graph.tokens] == [
        ("All", 2, "det"), ("dogs", 3, "nsubj"), ("eat", 0, "root"), ("food", 3, "obj"),
    ]


def test_multiword_ranges_and_empty_nodes_skipped():
    text = (
        "1-2\tdon't\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "1\tdo\tdo\tAUX\t_\t_\t3\taux\t_\t_\n"
        "2\tn't\tnot\tPART\t_\t_\t3\tadvmod\t_\t_\n"
        "2.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "3\tgo\tgo\tVERB\t_\t_\t0\troot\t_\t_\n"
    )
    g = parse_conllu(text)[0]
    assert [t.form for t in g.tokens] == ["do", "n't", "go"]


def test_sentence_text_defaults_to_joined_forms():
    g = graph_of([(1, "Run", "run", "VERB", 0, "root"), (2, "fast", "fast", "ADV", 1, "advmod")])
    assert g.sentence_text == "Run fast"


def test_graph_root_single_token():
    g = graph_of([(1, "Run", "run", "VERB", 0, "root")])
    assert graph_root(g).form == "Run"


def test_graph_root_refused_sentence():
    g = graph_of(
        [
            (1, "No", "no", "DET", 2, "det"),
            (2, "student", "student", "NOUN", 3, "nsubj"),
            (3, "refused", "refuse", "VERB", 0, "root"),
            (4, "to", "to", "PART", 5, "mark"),
            (5, "dance", "dance", "VERB", 3, "xcomp"),
            (6, "without", "without", "ADP", 7, "case"),
            (7, "shoes", "shoe", "NOUN", 5, "obl"),
        ]
    )
    assert graph_root(g).form == "refused"


def test_children_of_eat():
    g = graph_of(ALL_DOGS_EAT_APPLES)
    eat = graph_root(g)
    assert [(t.deprel, t.form) for t in g._children[eat.id]] == [
        ("nsubj", "dogs"),
        ("obj", "apples"),
    ]


def test_children_of_leaf_is_empty():
    g = graph_of(ALL_DOGS_EAT_APPLES)
    assert g._children.get(1, []) == []


def test_children_of_xcomp_root():
    g = graph_of(
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
    root = graph_root(g)
    assert [(t.deprel, t.form) for t in g._children[root.id]] == [
        ("nsubj", "member"),
        ("xcomp", "attend"),
    ]


def test_round_trip_token_lists(mini_corpus):
    text = serialize_conllu(mini_corpus)
    again = parse_conllu(text)
    assert [g.tokens for g in again] == [g.tokens for g in mini_corpus]


def test_children_partition_non_root_tokens(mini_corpus):
    for g in mini_corpus:
        seen = []
        for tok in g.tokens:
            seen.extend(t.id for t in g._children.get(tok.id, []))
        non_root = [t.id for t in g.tokens if t.head != 0]
        assert sorted(seen) == sorted(non_root)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=300))
def test_parser_never_raises_unstructured_errors(text):
    try:
        parse_conllu(text)
    except ConlluError:
        pass  # structured error is the contract


def reference_fault(rows):
    """The validator as one pass per kind of fault, in the order whose
    first failing check names a sentence's fault; None for a valid tree."""
    ids = [r[0] for r in rows]
    if len(set(ids)) != len(ids):
        return "duplicate token ids"
    roots = [r for r in rows if r[4] == 0]
    if len(roots) != 1:
        return f"expected exactly one root, found {len(roots)}"
    for tid, _form, _lemma, _upos, head, deprel in rows:
        if tid < 1:
            return f"token id {tid} < 1"
        if head == tid:
            return f"token {tid} is its own head"
        if head != 0 and head not in ids:
            return f"token {tid} has dangling head {head}"
        if deprel in ("", "_"):
            return f"token {tid} lacks a deprel"
    # each walk up the heads colours the tokens it passes and stops at the
    # first coloured one: an earlier colour reaches the root, its own
    # colour closes a cycle
    parent = {r[0]: r[4] for r in rows}
    colour = {0: -1}
    for walk, tid in enumerate(ids):
        while tid not in colour:
            colour[tid] = walk
            tid = parent[tid]
        if colour[tid] == walk:
            return f"cycle through token {tid}"
    missing = sorted(set(range(1, len(ids) + 1)) - set(ids))
    if missing:
        return f"missing token id {missing[0]} (ids run 1..{len(ids)})"
    return None


def _below(rows, tid):
    """Ids of the tokens under token `tid`."""
    below, frontier = set(), {tid}
    while frontier:
        frontier = {r[0] for r in rows if r[4] in frontier} - below
        below |= frontier
    return below


def _with_faults(rng, rows, count):
    """`rows` of a valid tree with `count` faults put in at random."""
    rows = [list(r) for r in rows]
    for _ in range(count):
        row = rng.choice(rows)
        # a cycle is named only when no other fault is, so it comes up twice as often
        fault = rng.choice(
            ["duplicate", "root", "id0", "self", "dangling", "deprel", "cycle", "cycle", "gap"]
        )
        if fault == "duplicate":
            row[0] = rng.choice(rows)[0]
        elif fault == "root":
            row[4] = 0
        elif fault == "id0":
            row[0] = 0
        elif fault == "self":
            row[4] = row[0]
        elif fault == "dangling":
            row[4] = len(rows) + rng.randint(1, 3)
        elif fault == "deprel":
            row[5] = rng.choice(["_", ""])
        elif fault == "gap":  # renumber the token past n, its dependents' heads with it
            old, row[0] = row[0], max(r[0] for r in rows) + rng.randint(1, 3)
            for r in rows:
                if r[4] == old:
                    r[4] = row[0]
        elif _below(rows, row[0]):  # a cycle: hang the token under itself
            row[4] = rng.choice(sorted(_below(rows, row[0])))
    if rng.random() < 0.5:
        rng.shuffle(rows)
    return [tuple(r) for r in rows]


FAULT_MESSAGES = {
    "duplicate": "duplicate token ids",
    "root": "expected exactly one root",
    "id0": "< 1",
    "self": "is its own head",
    "dangling": "has dangling head",
    "deprel": "lacks a deprel",
    "cycle": "cycle through token",
    "gap": "missing token id",
}


def test_validation_names_the_first_fault_of_each_sentence():
    rng = random.Random(8)
    faults = set()
    for _ in range(3000):
        rows = _with_faults(rng, workloads.random_rows(rng, rng.randint(1, 9)), rng.randint(1, 3))
        expected = reference_fault(rows)
        text = conllu_block(rows, sent_id="f")
        # the same tokens built by hand, with "_" read as no deprel
        tokens = [Token(*row[:5], "" if row[5] == "_" else row[5]) for row in rows]
        if expected is None:
            (graph,) = parse_conllu(text)
            assert sorted(graph.tokens) == sorted(rows)
            DependencyGraph(tokens, sent_id="f")
            continue
        with pytest.raises(ValidationError) as info:
            parse_conllu(text)
        assert str(info.value) == f"sentence f: {expected}", rows
        with pytest.raises(ValidationError) as info:
            DependencyGraph(tokens, sent_id="f")
        assert str(info.value) == f"sentence f: {expected}", rows
        faults.update(k for k, message in FAULT_MESSAGES.items() if message in expected)
    assert faults == set(FAULT_MESSAGES)  # each kind of fault came first somewhere


def test_token_lines_out_of_order_parse_as_sorted():
    rng = random.Random(3)
    lexicon = load_lexicon()
    mini = (DATA / "mini_corpus.conllu").read_text("utf-8")
    blocks = mini.strip().split("\n\n")
    blocks += [conllu_block(workloads.random_rows(rng, 25), sent_id=f"r{i}") for i in range(50)]
    for block in blocks:
        lines = block.strip().split("\n")
        comments = [line for line in lines if line.startswith("#")]
        rows = [line for line in lines if not line.startswith("#")]
        rng.shuffle(rows)
        (ordered,) = parse_conllu(block)
        (shuffled,) = parse_conllu(comments + rows)  # a list of lines parses too
        assert shuffled._children == ordered._children
        sexprs = []
        for graph in (ordered, shuffled):
            tree = binarize(graph)
            polarize(tree, lexicon)
            sexprs.append(render(project_to_tokens(tree, graph), "sexpr"))
        assert sexprs[0] == sexprs[1]
