"""Seeded input generators for the three benchmark workloads.

Every generator returns CoNLL-U sentence blocks (plus, for `gold`, the
matching gold TSV); the program under test sees only the files made from
them. Nothing here imports the package, so the inputs do not depend on the
code being measured.

* corpus: random trees drawn from a fixed pool. Pool sentence `i` depends
  only on `i`, so one golden hash per pool index covers every seed.
* deep: plain `xcomp` verb chains and alternating verb + `advmod not`
  chains on a fixed ladder of lengths, in a fixed order; the seed picks
  word variants.
* gold: the hand-built mini corpus replicated with fresh sent_ids, with
  seeded invalid sentences injected between the replicas.
"""

import random

# ---------------------------------------------------------------- corpus

CORPUS_POOL = 10000
CORPUS_SENTENCES = 1000
CORPUS_MIN_TOKENS = 5
CORPUS_MAX_TOKENS = 40

# vocabulary and relation mix of `random_graph` in tests/conftest.py
_RELATIONS = [
    "nsubj", "obj", "det", "advmod", "case", "mark", "amod", "nmod",
    "obl", "aux", "cop", "acl:relcl", "xcomp", "nummod", "conj", "cc",
    "compound", "fixed", "weird:rel",
]
_UPOS = ["NOUN", "VERB", "ADJ", "ADV", "DET", "NUM", "ADP", "PRON", "AUX", "PART"]
_WORDS = ["no", "not", "every", "the", "a", "most", "few", "than", "without",
          "if", "refuse", "dog", "cat", "run", "old", "2", "exactly", "all"]


def random_rows(rng, n):
    """Rows (id, form, lemma, upos, head, deprel) of a random valid tree.

    Same draws, in the same order, as `random_graph` in tests/conftest.py.
    """
    rows = []
    for i in range(1, n + 1):
        head = 0 if i == 1 else rng.randint(1, i - 1)
        form = rng.choice(_WORDS)
        upos = rng.choice(_UPOS)
        rel = "root" if head == 0 else rng.choice(_RELATIONS)
        rows.append((i, form, form, upos, head, rel))
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    remap = {old: new for new, old in enumerate(ids, start=1)}
    return sorted(
        (remap[i], form, lemma, upos, 0 if head == 0 else remap[head], rel)
        for i, form, lemma, upos, head, rel in rows
    )


def conllu_block(sent_id, rows):
    lines = [f"# sent_id = {sent_id}"]
    for i, form, lemma, upos, head, rel in rows:
        lines.append(f"{i}\t{form}\t{lemma}\t{upos}\t_\t_\t{head}\t{rel}\t_\t_")
    return "\n".join(lines) + "\n"


def corpus_pool_block(index):
    """CoNLL-U block of pool sentence `index`; depends on `index` only."""
    rng = random.Random(f"corpus-pool-{index}")
    rows = random_rows(rng, rng.randint(CORPUS_MIN_TOKENS, CORPUS_MAX_TOKENS))
    return conllu_block(f"c{index}", rows)


def corpus(seed):
    """(keys, blocks): distinct pool indices in seeded order."""
    keys = random.Random(seed).sample(range(CORPUS_POOL), CORPUS_SENTENCES)
    return keys, [corpus_pool_block(k) for k in keys]


# ------------------------------------------------------------------ deep

# (length, sentences of each kind). Stays below the recursion cliff of the
# seed commit: a 500-token chain raises RecursionError, 400 passes. The
# counts put the latency p50 in the middle of the 25-token negation chains
# and the p90 in the middle of the 100-token ones, away from the jumps in
# cost between groups.
DEEP_LADDER = ((12, 12), (25, 26), (50, 6), (100, 16), (200, 2), (400, 1))
DEEP_KINDS = ("plain", "neg")
DEEP_VARIANTS = 4

# plain, non-implicative verbs: the word choice never changes a mark rule
_CHAIN_VERBS = ["want", "try", "start", "hope", "plan", "need", "like", "seem",
                "begin", "help", "go", "wish"]


def deep_rows(kind, n, variant):
    """A chain of n tokens.

    plain: verb_1 <-xcomp- verb_2 <-xcomp- ... (each verb heads the next).
    neg:   verb, not, verb, not, ...: each verb is the xcomp of the previous
           verb and each `not` is the advmod of the verb before it. The
           polarity operators rewrite exactly n(n-1)/2 nodes on this chain.
    """
    rng = random.Random(f"deep-{kind}-{n}-{variant}")
    rows = []
    prev_verb = 0
    for i in range(1, n + 1):
        if kind == "neg" and i % 2 == 0:
            rows.append((i, "not", "not", "PART", prev_verb, "advmod"))
            continue
        verb = rng.choice(_CHAIN_VERBS)
        rel = "root" if prev_verb == 0 else "xcomp"
        rows.append((i, verb, verb, "VERB", prev_verb, rel))
        prev_verb = i
    return rows


def deep_key(kind, n, variant):
    return f"{kind}-{n}-{variant}"


def deep(seed):
    """(keys, blocks): the full ladder with seeded variants.

    The order is the same for every seed: under `--jobs 2` the wall time
    depends on where the heaviest chain falls, which must not vary by seed.
    """
    rng = random.Random(seed)
    keys = [
        deep_key(kind, n, rng.randrange(DEEP_VARIANTS))
        for kind in DEEP_KINDS
        for n, count in DEEP_LADDER
        for _ in range(count)
    ]
    random.Random("deep-order").shuffle(keys)
    return keys, [deep_block(k) for k in keys]


def deep_block(key):
    kind, n, variant = key.split("-")
    return conllu_block(f"d-{key}", deep_rows(kind, int(n), int(variant)))


# ------------------------------------------------------------------ gold

GOLD_REPLICAS = 120
GOLD_INVALID_EVERY = 10  # one injected invalid block per this many blocks
INVALID_KINDS = ("cycle", "dangling_head", "column_count", "non_integer_head")


def read_blocks(text):
    """Split CoNLL-U or gold TSV text into blocks of non-empty lines,
    dropping comment-only preambles."""
    blocks = []
    for chunk in text.split("\n\n"):
        lines = [ln for ln in chunk.splitlines() if ln]
        body = [ln for ln in lines if not ln.startswith("#")]
        if body:
            blocks.append(lines)
    return blocks


def conllu_sent_id(lines):
    for ln in lines:
        if ln.startswith("# sent_id"):
            return ln.split("=", 1)[1].strip()
    raise ValueError("mini corpus block without sent_id")


def _token_count(lines):
    return sum(not ln.startswith("#") for ln in lines)


def _corrupt(lines, kind, rng):
    """Token lines of one sentence made invalid in the given way."""
    rows = [ln.split("\t") for ln in lines if not ln.startswith("#")]
    non_root = [r for r in rows if r[6] != "0"]
    if kind == "cycle":
        a, b = rng.sample(non_root, 2)
        a[6], b[6] = b[0], a[0]
    elif kind == "dangling_head":
        rng.choice(non_root)[6] = str(len(rows) + rng.randint(1, 9))
    elif kind == "non_integer_head":
        rng.choice(non_root)[6] = rng.choice(["x", "1.5", "_", "head"])
    elif kind == "column_count":
        row = rng.choice(rows)
        del row[rng.randrange(len(row))]
    return ["\t".join(r) for r in rows]


def gold(seed, corpus_text, gold_text):
    """Replicate the mini corpus and its gold file with fresh sent_ids.

    Returns (origins, blocks, gold_blocks): blocks[i] is one CoNLL-U
    sentence, origins[i] the mini-corpus sent_id it copies and
    gold_blocks[i] its gold TSV block, both None for an injected invalid
    sentence.
    """
    rng = random.Random(seed)
    sentences = [(conllu_sent_id(b), b) for b in read_blocks(corpus_text)]
    gold_rows = {}
    for block in read_blocks(gold_text):
        rows = [ln for ln in block if not ln.startswith("#")]
        gold_rows[rows[0].split("\t")[0]] = rows
    entries = []
    for r in range(GOLD_REPLICAS):
        for sid, lines in sentences:
            new_id = f"{sid}.r{r}"
            body = [f"# sent_id = {new_id}" if ln.startswith("# sent_id") else ln
                    for ln in lines]
            entries.append((sid, new_id, body))
    rng.shuffle(entries)
    # a cycle needs two non-root tokens, which every sentence but one has
    cyclable = [(sid, lines) for sid, lines in sentences if _token_count(lines) >= 3]
    n_invalid = len(entries) // (GOLD_INVALID_EVERY - 1)
    for k in range(n_invalid):
        kind = INVALID_KINDS[k % len(INVALID_KINDS)]
        sid, lines = rng.choice(cyclable if kind == "cycle" else sentences)
        body = [f"# sent_id = bad{k}-{kind}-{sid}"] + _corrupt(lines, kind, rng)
        entries.insert(rng.randrange(len(entries) + 1), (None, None, body))
    origins = [sid for sid, _, _ in entries]
    blocks = ["\n".join(body) + "\n" for _, _, body in entries]
    gold_blocks = [
        None if sid is None else
        "\n".join("\t".join([new_id] + row.split("\t")[1:]) for row in gold_rows[sid])
        for sid, new_id, _ in entries
    ]
    return origins, blocks, gold_blocks
