"""Trees far deeper than the interpreter's recursion limit.

Verb chains nest one level per token after binarization, so a chain of n
tokens is a tree of depth about n. Every stage must walk such trees with
explicit stacks.
"""

import os
import pathlib
import subprocess
import sys

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
