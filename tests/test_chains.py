"""Trees far deeper than the interpreter's recursion limit.

Verb chains nest one level per token after binarization, so a chain of n
tokens is a tree of depth about n. Every stage must walk such trees with
explicit stacks.
"""

import os
import pathlib
import subprocess
import sys
from functools import partial

import udpolarity
from udpolarity import (
    Lexicon,
    Polarity,
    binarize,
    load_lexicon,
    parse_conllu,
    polarize,
    project_to_tokens,
    render,
)

from .conftest import workloads

SRC = pathlib.Path(udpolarity.__file__).resolve().parent


def chain(kind, n):
    """CoNLL-U of a benchmark chain: `plain` is verb <-xcomp- verb <-xcomp-
    ...; `neg` alternates verbs and `not`s, each `not` the advmod of the
    verb before it."""
    return workloads.conllu_block("chain", workloads.deep_rows(kind, n, 0))


def test_10000_token_chain_runs_every_stage():
    limit = sys.getrecursionlimit()
    (graph,) = parse_conllu(chain("plain", 10000))
    tree = binarize(graph)
    polarize(tree)
    annotated = project_to_tokens(tree, graph)
    sexpr = render(annotated, "sexpr")
    dot = render(annotated, "dot")
    assert sys.getrecursionlimit() == limit
    assert sexpr.count("(xcomp") == 9999
    assert dot.count("->") == 2 * 9999
    assert all(mark is Polarity.UP for _tok, mark in annotated.tokens)


def flat_coordination(n):
    """CoNLL-U of n nouns, every one after the first a `conj` of the first."""
    rows = [(1, "dogs", "dog", "NOUN", 0, "root")]
    rows += [(i, "cats", "cat", "NOUN", 1, "conj") for i in range(2, n + 1)]
    return workloads.conllu_block("coordination", rows)


def test_10000_token_flat_coordination_runs_every_stage():
    (graph,) = parse_conllu(flat_coordination(10000))
    tree = binarize(graph)
    polarize(tree)
    sexpr = render(project_to_tokens(tree, graph), "sexpr")
    assert sexpr.count("(conj-n^ ") == 9999
    assert all(node.mark is Polarity.UP for node in tree.nodes())


def _children_read_binarizing(n):
    """Entries read from the graph's children table while binarizing a
    flat coordination of n nouns."""
    (graph,) = parse_conllu(flat_coordination(n))
    reads = [0]

    class Counted(list):
        def __iter__(self):
            for token in list.__iter__(self):
                reads[0] += 1
                yield token

    graph._children = {head: Counted(kids) for head, kids in graph._children.items()}
    binarize(graph)
    return reads[0]


def test_flat_coordination_binarizes_linearly():
    # rebuilding the head's relation set for every conj dependent reads
    # about n^2 entries, so doubling the coordination would quadruple it
    small = _children_read_binarizing(1000)
    large = _children_read_binarizing(2000)
    assert 0 < large <= 2.2 * small, (small, large)


def test_no_recursion_limit_change_in_package():
    for path in SRC.rglob("*.py"):
        assert "setrecursionlimit" not in path.read_text("utf-8"), path


def test_negation_chain_marks_alternate_in_pairs():
    # The pattern the recursive polarizer produced up to 400 tokens: verbs
    # read ↓ ↑ ↓ ↑ ... and each `not` carries the opposite of its verb.
    for n in (12, 1000):
        (graph,) = parse_conllu(chain("neg", n))
        tree = binarize(graph)
        polarize(tree)
        marks = [mark for _tok, mark in project_to_tokens(tree, graph).tokens]
        expected = []
        for k in range(n // 2):
            verb = Polarity.DOWN if k % 2 == 0 else Polarity.UP
            expected += [verb, verb.flipped()]
        assert marks == expected, n


def test_cli_lenient_on_600_token_chain(tmp_path):
    path = tmp_path / "chain.conllu"
    path.write_text(chain("plain", 600), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "udpolarity.cli", "polarize", "--lenient", str(path)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
        timeout=60,
    )
    assert proc.returncode == 0
    assert len(proc.stdout.splitlines()) == 1
    assert "Traceback" not in proc.stderr


def _flips_polarizing(kind, n, monkeypatch):
    """Calls of Polarity.flipped while polarizing a chain: one per mark the
    operators rewrite."""
    (graph,) = parse_conllu(chain(kind, n))
    tree = binarize(graph)
    calls = [0]
    flipped = Polarity.flipped

    def counted(mark):
        calls[0] += 1
        return flipped(mark)

    monkeypatch.setattr(Polarity, "flipped", counted)
    polarize(tree)
    monkeypatch.setattr(Polarity, "flipped", flipped)
    return calls[0]


def test_stacked_negation_rewrites_linearly_many_marks(monkeypatch):
    # rewriting each negated subtree in place flips about n^2/2 marks, so
    # doubling the chain would quadruple the count
    small = _flips_polarizing("neg", 1000, monkeypatch)
    large = _flips_polarizing("neg", 2000, monkeypatch)
    assert 0 < large <= 2.2 * small, (small, large)


def test_4000_nested_adverbs(monkeypatch):
    # `not` <-advmod- `not` <-advmod- ... `run`: every adverb modifies the
    # next, so each advmod dependent holds all the adverbs before it; only
    # the first, a lone `not`, negates its head. The negation check is
    # never handed more words than the longest negation phrase has.
    n = 4000
    rows = [(i, "not", "not", "ADV", i + 1, "advmod") for i in range(1, n)]
    rows.append((n, "run", "run", "VERB", 0, "root"))
    (graph,) = parse_conllu(workloads.conllu_block("adverbs", rows))
    tree = binarize(graph)
    lexicon = load_lexicon()
    longest = max(len(words) for words in lexicon.negation_words)
    checked = []
    is_negation_phrase = Lexicon.is_negation_phrase

    def counted(self, words):
        checked.append(len(words))
        return is_negation_phrase(self, words)

    monkeypatch.setattr(Lexicon, "is_negation_phrase", counted)
    polarize(tree, lexicon)
    marks = [mark for _tok, mark in project_to_tokens(tree, graph).tokens]
    assert marks == [Polarity.UP, Polarity.DOWN] + [Polarity.UP] * (n - 2)
    assert checked and max(checked) <= longest


def nested_determiners(word, n):
    """CoNLL-U of n `word`s, each the det of the next and the last the det
    of `dogs`, the subject of `bark`."""
    rows = [(i, word, word, "DET", i + 1, "det") for i in range(1, n + 1)]
    rows += [(n + 1, "dogs", "dog", "NOUN", n + 2, "nsubj"),
             (n + 2, "bark", "bark", "VERB", 0, "root")]
    return workloads.conllu_block("determiners", rows)


def nested_determiners_apart(word, n):
    """CoNLL-U like nested_determiners(word, n), with a `very`, an advmod
    of `bark`, after each `word`: every dependent's ids span words that
    are not its own."""
    rows = []
    for i in range(1, n + 1):
        rows += [(2 * i - 1, word, word, "DET", 2 * i + 1, "det"),
                 (2 * i, "very", "very", "ADV", 2 * n + 2, "advmod")]
    rows += [(2 * n + 1, "dogs", "dog", "NOUN", 2 * n + 2, "nsubj"),
             (2 * n + 2, "bark", "bark", "VERB", 0, "root")]
    return workloads.conllu_block("determiners", rows)


def _lines_polarizing(block):
    """Line events traced while polarizing one sentence: everything the
    rules, the phrase scan and the lexicon read in Python."""
    (graph,) = parse_conllu(block)
    tree = binarize(graph)
    lexicon = load_lexicon()
    lines = [0]

    def trace(frame, event, arg):
        if event == "line":
            lines[0] += 1
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        polarize(tree, lexicon)
    finally:
        sys.settrace(previous)
    return lines[0]


def test_nested_determiners_read_linearly():
    # reading every token under each determiner's dependent takes about
    # n^2/2 steps, so doubling the chain would quadruple the count; `at`
    # may start a phrase ("at least") but starts none here
    for word in ("the", "foo", "at"):
        for block in (nested_determiners, nested_determiners_apart):
            small = _lines_polarizing(block(word, 1000))
            large = _lines_polarizing(block(word, 2000))
            assert 0 < large <= 2.2 * small, (word, block.__name__, small, large)


def nested_adverbs(first, n):
    """CoNLL-U of `first` and n - 1 `the`s, each the advmod of the next and
    the last the det of `dogs`, the subject of `bark`: one phrase covers
    every `the`, and `very` starts none."""
    rows = [(i, "the", "the", "DET", i + 1, "advmod") for i in range(1, n)]
    rows += [(n, "the", "the", "DET", n + 1, "det"),
             (n + 1, "dogs", "dog", "NOUN", n + 2, "nsubj"),
             (n + 2, "bark", "bark", "VERB", 0, "root")]
    rows[0] = (1, first, first, "ADV" if first == "very" else "DET", 2, "advmod")
    return workloads.conllu_block("adverbs", rows)


def nested_markers(n):
    """CoNLL-U of `the` and n - 1 `if`s, each the mark of the word before
    it, `the` the det of `dogs`, the subject of `bark`: one phrase covers
    every `if`."""
    rows = [(1, "the", "the", "DET", n + 1, "det")]
    rows += [(i, "if", "if", "SCONJ", i - 1, "mark") for i in range(2, n + 1)]
    rows += [(n + 1, "dogs", "dog", "NOUN", n + 2, "nsubj"),
             (n + 2, "bark", "bark", "VERB", 0, "root")]
    return workloads.conllu_block("markers", rows)


def test_nested_adverbs_under_a_phrase_read_linearly():
    # each advmod's (or mark's) word rule once read its dependent again
    # down to a word the phrase does not cover, or whole when it covers
    # all: about n^2/2 steps
    blocks = {"the": partial(nested_adverbs, "the"), "very": partial(nested_adverbs, "very"),
              "if": nested_markers}
    for first, block in blocks.items():
        small = _lines_polarizing(block(1000))
        large = _lines_polarizing(block(2000))
        assert 0 < large <= 2.2 * small, (first, small, large)


def test_10000_nested_determiners():
    # a `the` is a phrase of its own: the first one takes the clause's ↑,
    # and the `=` of its first argument flattens every later one and `dogs`
    n = 10000
    for word, marks in (("the", [Polarity.UP] + [Polarity.FLAT] * n),
                        ("foo", [Polarity.UP] * (n + 1))):
        (graph,) = parse_conllu(nested_determiners(word, n))
        tree = binarize(graph)
        polarize(tree)
        assert [mark for _tok, mark in project_to_tokens(tree, graph).tokens] == marks + [Polarity.UP]


def wide_head(rel, n):
    """CoNLL-U of `refused` with n dependents `dogs`, each attached by `rel`."""
    rows = [(1, "refused", "refuse", "VERB", 0, "root")]
    rows += [(i, "dogs", "dog", "NOUN", 1, rel) for i in range(2, n + 2)]
    return workloads.conllu_block("wide", rows)


def test_many_complements_of_one_head_read_linearly():
    # the complements of one head nest down its spine, and each complement
    # rule once walked the rest of that spine to find the verb: about
    # n^2/2 steps
    for rel in ("obj", "iobj", "xcomp", "ccomp"):
        small = _lines_polarizing(wide_head(rel, 1000))
        large = _lines_polarizing(wide_head(rel, 2000))
        assert 0 < large <= 2.2 * small, (rel, small, large)
