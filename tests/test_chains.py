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
    Polarity,
    binarize,
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
