"""Reading, validating and writing CoNLL-U dependency parses.

Only the columns that drive polarization are kept on each token (ID, FORM,
LEMMA, UPOS, HEAD, DEPREL); the remaining CoNLL-U columns are accepted on
input and written back as '_'. Multiword-token ranges ("3-4") and empty
nodes ("5.1") are skipped: polarization runs on the basic tree only.
"""

from dataclasses import dataclass, field
from functools import cached_property


class ConlluError(Exception):
    """Malformed CoNLL-U input (bad column count, non-integer id/head, ...)."""


class ValidationError(ConlluError):
    """Structurally invalid sentence (cycle, multiple roots, dangling head)."""


@dataclass(frozen=True)
class Token:
    id: int
    form: str
    lemma: str
    upos: str
    head: int
    deprel: str

    @property
    def is_punct(self):
        return self.upos == "PUNCT" or self.deprel == "punct"


@dataclass
class DependencyGraph:
    """One parsed sentence: tokens plus the head/deprel edges they carry."""

    tokens: list[Token]
    sentence_text: str = ""
    sent_id: str = ""
    _children: dict[int, list[Token]] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self._children:
            for tok in self.tokens:
                self._children.setdefault(tok.head, []).append(tok)
            for kids in self._children.values():
                kids.sort(key=lambda t: t.id)

    @cached_property
    def relations(self):
        """Head id -> the set of relations its dependents attach by."""
        return {head: {t.deprel for t in kids} for head, kids in self._children.items()}

    def token_by_id(self, tid):
        for tok in self.tokens:
            if tok.id == tid:
                return tok
        raise KeyError(tid)


def graph_root(graph):
    """Return the unique token whose head is 0."""
    roots = graph._children.get(0)
    if not roots:
        raise ValidationError(f"sentence {graph.sent_id or '?'}: no root token")
    return roots[0]


def children_of(graph, token):
    """All (deprel, dependent) pairs governed by `token`, in token-id order."""
    return [(t.deprel, t) for t in graph._children.get(token.id, [])]


def _validate(tokens, label):
    ids = [t.id for t in tokens]
    if len(set(ids)) != len(ids):
        raise ValidationError(f"sentence {label}: duplicate token ids")
    roots = [t for t in tokens if t.head == 0]
    if len(roots) != 1:
        raise ValidationError(
            f"sentence {label}: expected exactly one root, found {len(roots)}"
        )
    known = set(ids)
    for t in tokens:
        if t.id < 1:
            raise ValidationError(f"sentence {label}: token id {t.id} < 1")
        if t.head == t.id:
            raise ValidationError(
                f"sentence {label}: token {t.id} is its own head"
            )
        if t.head != 0 and t.head not in known:
            raise ValidationError(
                f"sentence {label}: token {t.id} has dangling head {t.head}"
            )
        if t.head >= 0 and not t.deprel:
            raise ValidationError(f"sentence {label}: token {t.id} lacks a deprel")
    # every token must reach the root; anything left over sits on a cycle.
    # Each walk up the heads colours the tokens it passes with its own
    # number and stops at the first coloured one: an earlier colour is known
    # to reach the root, its own colour closes a cycle.
    parent = {t.id: t.head for t in tokens}
    colour = {0: -1}
    for walk, t in enumerate(tokens):
        cur = t.id
        while cur not in colour:
            colour[cur] = walk
            cur = parent[cur]
        if colour[cur] == walk:
            raise ValidationError(f"sentence {label}: cycle through token {cur}")


def _parse_token_line(line, lineno):
    cols = line.split("\t")
    if len(cols) != 10:
        raise ConlluError(f"line {lineno}: expected 10 columns, got {len(cols)}")
    tid, form, lemma, upos, _xpos, _feats, head, deprel, _deps, _misc = cols
    if "-" in tid or "." in tid:
        return None  # multiword range / empty node
    try:
        tid_val = int(tid)
    except ValueError:
        raise ConlluError(f"line {lineno}: non-integer token id {tid!r}") from None
    try:
        head_val = int(head)
    except ValueError:
        raise ConlluError(f"line {lineno}: non-integer head {head!r}") from None
    if head_val < 0:
        raise ConlluError(f"line {lineno}: negative head {head_val}")
    return Token(
        id=tid_val,
        form=form,
        lemma=lemma if lemma != "_" else form.lower(),
        upos=upos,
        head=head_val,
        deprel=deprel if deprel != "_" else "",
    )


def sentence_blocks(text, first_line=1, first_sentence=1):
    """Split CoNLL-U text into sentence blocks.

    A block ends at an empty or whitespace-only line; blocks of comments
    alone hold no sentence and are dropped. Yields (line, ordinal, lines):
    the input line number of the block's first line, the block's position
    among the sentences, and its lines. Both count from `first_line` and
    `first_sentence`, for text that is a piece of a larger input.
    """
    lines = []
    start = ordinal = 0
    is_sentence = False  # the block has a line other than a comment
    for lineno, line in enumerate(text.split("\n"), start=first_line):
        if line.strip():
            if not lines:
                start = lineno
            lines.append(line)
            is_sentence = is_sentence or line[0] != "#"
            continue
        if is_sentence:
            yield start, first_sentence + ordinal, lines
            ordinal += 1
        lines = []
        is_sentence = False
    if is_sentence:
        yield start, first_sentence + ordinal, lines


def _parse_block(lines, first_line, ordinal):
    """One sentence block -> DependencyGraph, or None when every token line
    is a multiword range or an empty node."""
    tokens = []
    comments = {}  # `# key = value` lines; the last of a key wins
    for lineno, line in enumerate(lines, start=first_line):
        if line.startswith("#"):
            key, sep, value = line[1:].partition("=")
            if sep:
                comments[key.strip()] = value.strip()
            continue
        tok = _parse_token_line(line, lineno)
        if tok is not None:
            tokens.append(tok)
    if not tokens:
        return None
    sent_id = comments.get("sent_id") or str(ordinal)
    _validate(tokens, sent_id)
    return DependencyGraph(
        tokens=tokens,
        sentence_text=comments.get("text") or " ".join(t.form for t in tokens),
        sent_id=sent_id,
    )


def parse_conllu(text, first_line=1, first_sentence=1):
    """Parse CoNLL-U text into a list of DependencyGraph, one per sentence.

    Errors name the input line, or the sentence by its sent_id or, without
    one, its position; `first_line` and `first_sentence` are the numbers of
    the text's first line and sentence (see sentence_blocks).
    """
    graphs = []
    for line, ordinal, lines in sentence_blocks(text, first_line, first_sentence):
        graph = _parse_block(lines, line, ordinal)
        if graph is not None:
            graphs.append(graph)
    return graphs


def serialize_conllu(graphs):
    """Write graphs back out as CoNLL-U text (unkept columns become '_')."""
    blocks = []
    for graph in graphs:
        lines = []
        if graph.sent_id:
            lines.append(f"# sent_id = {graph.sent_id}")
        if graph.sentence_text:
            lines.append(f"# text = {graph.sentence_text}")
        for t in graph.tokens:
            lines.append(
                "\t".join(
                    [
                        str(t.id),
                        t.form,
                        t.lemma or "_",
                        t.upos or "_",
                        "_",
                        "_",
                        str(t.head),
                        t.deprel or "_",
                        "_",
                        "_",
                    ]
                )
            )
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")
