"""Reading, validating and writing CoNLL-U dependency parses.

Only the columns that drive polarization are kept on each token (ID, FORM,
LEMMA, UPOS, HEAD, DEPREL); the remaining CoNLL-U columns are accepted on
input and written back as '_'. Multiword-token ranges ("3-4") and empty
nodes ("5.1") are skipped: polarization runs on the basic tree only, whose
word ids must run 1..n.
"""

from collections import namedtuple
from functools import cached_property
from itertools import islice


class ConlluError(Exception):
    """Malformed CoNLL-U input (bad column count, non-integer id/head, ...)."""


class ValidationError(ConlluError):
    """Structurally invalid sentence (cycle, multiple roots, dangling head, ids not 1..n)."""


Token = namedtuple("Token", "id form lemma upos head deprel")
Token.is_punct = property(lambda t: t.upos == "PUNCT" or t.deprel == "punct")

_tuple_new = tuple.__new__  # builds a Token in C, not in its Python __new__


class DependencyGraph:
    """One sentence: tokens plus the head/deprel edges they carry. Tokens
    that do not form a tree are a ValidationError naming the first fault.
    A `sentence_text` of None stands for the forms joined by spaces,
    joined when first read."""

    def __init__(self, tokens, sentence_text="", sent_id=""):
        self.tokens = tokens
        if sentence_text is not None:
            self.sentence_text = sentence_text
        self.sent_id = sent_id
        # head id -> its dependents in token-id order (a Token's id leads
        # the tuple, so sorting the tokens sorts every head's dependents)
        children = self._children = {}
        for tok in sorted(tokens):
            children.setdefault(tok.head, []).append(tok)
        # a tree has unique ids from 1 up to its size, one root and labels
        # throughout, and the root reaches every token: a self-head, a
        # dangling head or a cycle leaves some token out
        n = len(tokens)
        ids = {t.id for t in tokens}
        if (len(ids) != n or len(children.get(0, ())) != 1 or min(ids) < 1 or max(ids) != n
                or not all([t.deprel for t in tokens]) or len(self.order) != n):
            raise ValidationError(f"sentence {sent_id or '?'}: {_fault(self)}")

    @cached_property
    def sentence_text(self):
        """The forms joined by spaces, for a graph made with no text."""
        return " ".join([t.form for t in self.tokens])

    @cached_property
    def relations(self):
        """Head id -> the set of relations its dependents attach by."""
        return {head: {t.deprel for t in kids} for head, kids in self._children.items()}

    @cached_property
    def order(self):
        """The tokens the root reaches, breadth first from the root. The walk
        stops after as many tokens as the sentence has: in a graph that is
        not a tree, a repeated id or an id 0 can lead back to a token
        already listed."""
        children = self._children
        order = children.get(0, [])[:1]
        # also visits the tokens appended during the loop
        for tok in islice(order, len(self.tokens)):
            order += children.get(tok.id, ())
        return order


def graph_root(graph):
    """Return the unique token whose head is 0."""
    return graph._children[0][0]


def _fault(graph):
    """The first fault, in a fixed order, of a sentence that is not a tree."""
    tokens = graph.tokens
    known = {t.id: t for t in tokens}
    if len(known) != len(tokens):
        return "duplicate token ids"
    roots = len(graph._children.get(0, ()))
    if roots != 1:
        return f"expected exactly one root, found {roots}"
    for t in tokens:
        if t.id < 1:
            return f"token id {t.id} < 1"
        if t.head == t.id:
            return f"token {t.id} is its own head"
        if t.head != 0 and t.head not in known:
            return f"token {t.id} has dangling head {t.head}"
        if not t.deprel:
            return f"token {t.id} lacks a deprel"
    # when the root does not reach every token, and no head is missing,
    # the first token left out leads up into a cycle
    reached = set(graph.order)
    tok = next((t for t in tokens if t not in reached), None)
    if tok is not None:
        seen = set()
        while tok.id not in seen:
            seen.add(tok.id)
            tok = known[tok.head]
        return f"cycle through token {tok.id}"
    missing = next(i for i in range(1, len(tokens) + 1) if i not in known)
    return f"missing token id {missing} (ids run 1..{len(tokens)})"


def _newlines(text):
    """Line ends "\r\n" and "\r" made "\n", as in a file read in text mode."""
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def read_text(source, name=None):
    """The text of a UTF-8 input file, or of a stream such as stdin, with
    line ends as in text mode and no leading byte order mark. Bytes that
    are not UTF-8 are a ValueError naming the input (`name`, by default
    the path) and the line."""
    if hasattr(source, "read"):
        data = source.read()
    else:
        with open(source, "rb") as f:
            data = f.read()
    try:
        text = data if isinstance(data, str) else data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = _newlines(data[: exc.start].decode("utf-8")).count("\n") + 1
        raise ValueError(
            f"{source if name is None else name} line {line}: "
            f"byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})"
        ) from None
    return _newlines(text).removeprefix("\ufeff")


def sentence_blocks(text, first_line=1, first_sentence=1):
    """Split CoNLL-U text, or a list of its lines, into sentence blocks.

    Text breaks into lines at "\n" only; a block ends at an empty or
    whitespace-only line, and blocks of comments alone are dropped. Yields
    (line, ordinal, lines): the input line number of the block's first
    line, the block's position among the sentences, and its lines, counted
    from `first_line` and `first_sentence` for a piece of a larger input.
    """
    lines = []
    start = ordinal = 0
    is_sentence = False  # the block has a line other than a comment
    if isinstance(text, str):
        text = text.split("\n")
    for lineno, line in enumerate(text, start=first_line):
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
        if line[0] == "#":
            key, sep, value = line[1:].partition("=")
            if sep:
                comments[key.strip()] = value.strip()
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            raise ConlluError(f"line {lineno}: expected 10 columns, got {len(cols)}")
        tid, form, lemma, upos, _xpos, _feats, head, deprel, _deps, _misc = cols
        if "-" in tid or "." in tid:
            continue  # multiword range / empty node
        try:
            tid = int(tid)
        except ValueError:
            raise ConlluError(f"line {lineno}: non-integer token id {tid!r}") from None
        try:
            head = int(head)
        except ValueError:
            raise ConlluError(f"line {lineno}: non-integer head {head!r}") from None
        if head < 0:
            raise ConlluError(f"line {lineno}: negative head {head}")
        if deprel == "_":
            deprel = ""
        if lemma == "_":
            lemma = form.lower()
        tokens.append(_tuple_new(Token, (tid, form, lemma, upos, head, deprel)))
    if not tokens:
        return None
    sent_id = comments.get("sent_id") or str(ordinal)
    # without a non-empty `# text`, the forms joined when the text is read
    return DependencyGraph(tokens, comments.get("text") or None, sent_id)


def parse_conllu(text, first_line=1, first_sentence=1):
    """Parse CoNLL-U text, or its lines, into one DependencyGraph per sentence.

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
            cols = (str(t.id), t.form, t.lemma or "_", t.upos or "_", "_", "_",
                    str(t.head), t.deprel or "_", "_", "_")
            lines.append("\t".join(cols))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")
