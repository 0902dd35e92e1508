"""Byte-identical output against the benchmark's golden s-expressions.

The benchmark's input generators (perfbench/workloads.py, imported here
read-only) and its golden hashes (perfbench/golden/*.sexpr.sha1, the first
12 hex digits of the SHA-1 of each `polarize --format sexpr` line) pin the
output of every stage on random trees and on deep chains of up to 400
tokens. tests/data/wildcard_quantifiers.sexpr.sha1 pins, in the same way,
the first 2000 pool sentences polarized with the user quantifier table
tests/data/wildcard_quantifiers.tsv, whose rows have NUM wildcards.
tests/data/pool_punct.tsv.sha1 pins the `polarize --format tsv` block of
each of the first 2000 pool sentences given punctuation by
punct_pool_block: the pool has none, and only the projection reads it.
"""

import hashlib
import io

import pytest

from udpolarity import (
    RelationHierarchy,
    binarize,
    load_lexicon,
    parse_conllu,
    polarize,
    project_to_tokens,
    render,
)
from udpolarity.cli import main

from .conftest import DATA, PERFBENCH, punct_pool_block, workloads

CORPUS_STRIDE = 50  # every 50th sentence of the 10000-sentence pool
WILDCARD_STRIDE = 20  # every 20th of the 2000 sentences the user table pins
PUNCT_STRIDE = 20  # every 20th of the 2000 punctuated sentences


def sexpr_hash(line):
    return hashlib.sha1(line.encode("utf-8")).hexdigest()[:12]


def golden(name):
    with open(PERFBENCH / "golden" / f"{name}.sexpr.sha1", encoding="utf-8") as f:
        return dict(line.split() for line in f)


def corpus_cases():
    wanted = golden("corpus")
    return [
        (workloads.corpus_pool_block(i), wanted[str(i)])
        for i in range(0, workloads.CORPUS_POOL, CORPUS_STRIDE)
    ]


def deep_cases():
    wanted = golden("deep")
    keys = [
        workloads.deep_key(kind, n, variant)
        for kind in workloads.DEEP_KINDS
        for n, _count in workloads.DEEP_LADDER
        for variant in range(workloads.DEEP_VARIANTS)
    ]
    return [(workloads.deep_block(key), wanted[key]) for key in keys]


@pytest.mark.parametrize("cases", [corpus_cases, deep_cases], ids=["corpus", "deep"])
def test_library_path_matches_golden(cases):
    lexicon = load_lexicon()
    hierarchy = RelationHierarchy.default()
    got, want = [], []
    for block, digest in cases():
        (graph,) = parse_conllu(block)
        tree = binarize(graph, hierarchy)
        polarize(tree, lexicon)
        got.append(sexpr_hash(render(project_to_tokens(tree, graph), "sexpr")))
        want.append(digest)
    assert got == want


def test_cli_jobs_match_golden(tmp_path):
    cases = corpus_cases()[:20] + deep_cases()[::8]
    path = tmp_path / "slice.conllu"
    path.write_text("\n".join(block for block, _ in cases), encoding="utf-8")
    outputs = []
    for jobs in ("1", "2"):
        out, err = io.StringIO(), io.StringIO()
        code = main(["polarize", "--format", "sexpr", "--jobs", jobs, str(path)], out=out, err=err)
        assert code == 0, err.getvalue()
        outputs.append(out.getvalue())
    assert outputs[0] == outputs[1]
    assert [sexpr_hash(line) for line in outputs[0].splitlines()] == [d for _, d in cases]


def test_user_table_with_wildcards_matches_its_hashes(tmp_path):
    with open(DATA / "wildcard_quantifiers.sexpr.sha1", encoding="utf-8") as f:
        rows = [line.split() for line in f]
    assert [int(i) for i, _ in rows] == list(range(2000))
    cases = rows[::WILDCARD_STRIDE]
    path = tmp_path / "slice.conllu"
    path.write_text("\n".join(workloads.corpus_pool_block(int(i)) for i, _ in cases),
                    encoding="utf-8")
    table = str(DATA / "wildcard_quantifiers.tsv")
    for jobs in ("1", "2"):
        out, err = io.StringIO(), io.StringIO()
        code = main(["polarize", "--format", "sexpr", "--lexicon", table, "--jobs", jobs,
                     str(path)], out=out, err=err)
        assert (code, err.getvalue()) == (0, "")
        assert [sexpr_hash(line) for line in out.getvalue().splitlines()] == [d for _, d in cases]


def test_punctuated_pool_matches_its_tsv_hashes(tmp_path):
    with open(DATA / "pool_punct.tsv.sha1", encoding="utf-8") as f:
        rows = [line.split() for line in f]
    assert [int(i) for i, _ in rows] == list(range(2000))
    cases = rows[::PUNCT_STRIDE]
    path = tmp_path / "slice.conllu"
    path.write_text("\n".join(punct_pool_block(int(i)) for i, _ in cases), encoding="utf-8")
    for jobs in ("1", "2"):
        out, err = io.StringIO(), io.StringIO()
        code = main(["polarize", "--format", "tsv", "--jobs", jobs, str(path)], out=out, err=err)
        assert (code, err.getvalue()) == (0, "")
        blocks = out.getvalue().split("\n\n")
        assert blocks.pop() == ""
        assert [sexpr_hash(block) for block in blocks] == [d for _, d in cases]
