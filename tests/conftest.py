import importlib.util
import pathlib

import pytest

from udpolarity import (
    DependencyGraph,
    Token,
    binarize,
    load_lexicon,
    parse_conllu,
    polarize,
    project_to_tokens,
)
from udpolarity.lexicon import NUM_WILDCARD

DATA = pathlib.Path(__file__).parent / "data"
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load_perfbench_workloads():
    """The benchmark's input generators, read from perfbench/ as they are."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_perfbench_workloads()


def conllu_block(rows, sent_id="s1", text=None):
    """Build a CoNLL-U block from (id, form, lemma, upos, head, deprel) rows."""
    lines = [f"# sent_id = {sent_id}"]
    if text:
        lines.append(f"# text = {text}")
    for i, form, lemma, upos, head, rel in rows:
        lines.append(f"{i}\t{form}\t{lemma}\t{upos}\t_\t_\t{head}\t{rel}\t_\t_")
    return "\n".join(lines) + "\n"


def graph_of(rows, sent_id="s1"):
    return parse_conllu(conllu_block(rows, sent_id))[0]


def annotate(rows, sent_id="s1"):
    graph = graph_of(rows, sent_id)
    tree = binarize(graph)
    polarize(tree)
    return project_to_tokens(tree, graph)


def mark_names(annotated):
    return [m.name if m is not None else None for _t, m in annotated.tokens]


def reference_profile(lexicon, tokens):
    """The profile of a token span read key by key: the lowercased forms,
    then each variant with NUM_WILDCARD for some NUM tokens (variant k
    replaces the NUM tokens whose bits are set in k, bit j for the j-th),
    probed in that order in the quantifiers and then in the comparatives."""
    keys = [tuple([t.form.lower() for t in tokens])]
    for i, tok in enumerate(tokens):
        if tok.upos == "NUM":
            keys += [key[:i] + (NUM_WILDCARD,) + key[i + 1:] for key in keys]
    for table in (lexicon.quantifiers, lexicon.comparatives):
        for key in keys:
            profile = table.get(key)
            if profile is not None:
                return profile
    return None


ALL_DOGS_EAT_APPLES = [
    (1, "All", "all", "DET", 2, "det"),
    (2, "dogs", "dog", "NOUN", 3, "nsubj"),
    (3, "eat", "eat", "VERB", 0, "root"),
    (4, "apples", "apple", "NOUN", 3, "obj"),
]

NO_STUDENT_REFUSED = [
    (1, "No", "no", "DET", 2, "det"),
    (2, "student", "student", "NOUN", 3, "nsubj"),
    (3, "refused", "refuse", "VERB", 0, "root"),
    (4, "to", "to", "PART", 5, "mark"),
    (5, "dance", "dance", "VERB", 3, "xcomp"),
    (6, "without", "without", "ADP", 7, "case"),
    (7, "shoes", "shoe", "NOUN", 5, "obl"),
]


def random_graph(rng, n):
    """Random valid dependency tree over n tokens, with words and labels
    drawn from vocab that exercises every rule family."""
    relations = [
        "nsubj", "obj", "det", "advmod", "case", "mark", "amod", "nmod",
        "obl", "aux", "cop", "acl:relcl", "xcomp", "nummod", "conj", "cc",
        "compound", "fixed", "weird:rel",
    ]
    upos = ["NOUN", "VERB", "ADJ", "ADV", "DET", "NUM", "ADP", "PRON", "AUX", "PART"]
    words = ["no", "not", "every", "the", "a", "most", "few", "than", "without",
             "if", "refuse", "dog", "cat", "run", "old", "2", "exactly", "all"]
    tokens = []
    for i in range(1, n + 1):
        head = 0 if i == 1 else rng.randint(1, i - 1)
        form = rng.choice(words)
        tokens.append(
            Token(
                id=i,
                form=form,
                lemma=form,
                upos=rng.choice(upos),
                head=head,
                deprel="root" if head == 0 else rng.choice(relations),
            )
        )
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    remap = {old: new for new, old in enumerate(ids, start=1)}
    shuffled = sorted(
        (
            Token(
                id=remap[t.id],
                form=t.form,
                lemma=t.lemma,
                upos=t.upos,
                head=0 if t.head == 0 else remap[t.head],
                deprel=t.deprel,
            )
            for t in tokens
        ),
        key=lambda t: t.id,
    )
    return DependencyGraph(tokens=list(shuffled))


@pytest.fixture(scope="session")
def lexicon():
    return load_lexicon()


@pytest.fixture(scope="session")
def mini_corpus():
    return parse_conllu((DATA / "mini_corpus.conllu").read_text("utf-8"))
