"""Word-level polarity knowledge: quantifier profiles, implicative verbs,
negation operators and conditional markers.

The tables ship with the package; the quantifier and implicative tables
can be extended or overridden by user files of the same format. Lookups
are case-insensitive and multi-word surface forms are supported
throughout.
"""

import os
from collections import namedtuple
from functools import cached_property
from itertools import chain

from .conllu import read_text
from .polarity import _DOWN, Polarity

NUM_WILDCARD = "<num>"

CATEGORIES = {"universal", "negation", "exact", "existential", "other", "comparative"}


class LexiconError(Exception):
    """Malformed or conflicting lexicon data."""


# surface: lowercase word forms; NUM_WILDCARD matches any NUM token
QuantifierProfile = namedtuple("QuantifierProfile", "surface first_arg second_arg category")


class Lexicon:
    """The word tables the polarizer reads, and the lookups over them.

    A quantifier or comparative phrase is found by one walk down
    phrase_trie, word by word (phrases_at); profile is that walk taken to
    the span's end. phrase_trie, max_phrase_len and longest_negation are
    built from the tables on first use and kept, so the tables must not
    change once the lexicon has polarized or answered profile: a
    quantifier or comparative row added or changed after that is not seen.
    """

    def __init__(self):
        self.quantifiers = {}  # surface tuple -> profile
        self.comparatives = {}  # surface tuple -> profile
        self.implicatives = {}  # lemma -> downward bool
        self.negation_words = set()  # surface tuples
        self.conditional_words = set()  # single lowercase words

    def profile(self, tokens):
        """Profile of a contiguous token span, or None: the walk of
        phrases_at taken to the span's end."""
        found = self.phrases_at(tokens)
        return found[0][1] if found and found[0][0] == len(tokens) else None

    def phrases_at(self, tokens, start=0):
        """(length, profile) of every span tokens[start:start + length]
        that has a profile, longest first.

        One walk down phrase_trie, one dict probe for a word that starts
        no phrase: a token takes the edge of its lowercased form, a NUM
        token the NUM_WILDCARD edge instead where only that one leads on,
        or the joined edge where both do. A span's profile is the
        quantifier that ends at its node or else the comparative.
        """
        found = []
        node = self.phrase_trie
        for end in range(start, len(tokens)):
            tok = tokens[end]
            word = tok.form.lower()
            child = node.get(word)
            if tok.upos == "NUM" and NUM_WILDCARD in node:
                child = node[NUM_WILDCARD] if child is None else node[NUM_WILDCARD, word]
            if child is None:
                break
            node = child
            profile = node.get(0) or node.get(1)
            if profile is not None:
                found.append((end - start + 1, profile))
        found.reverse()
        return found

    @cached_property
    def phrase_trie(self):
        """The quantifier and comparative phrases as one word trie, built
        on first use: a node maps each next word of a phrase
        (NUM_WILDCARD for "n") to its node, 0 and 1 to the quantifier
        and the comparative profile of the phrase that ends there, and,
        where NUM_WILDCARD leads on, (NUM_WILDCARD, word) to the node a
        NUM token of that word reaches (see _joined)."""
        root = {}
        for slot, table in enumerate((self.quantifiers, self.comparatives)):
            for key, profile in table.items():
                node = root
                for word in key:
                    node = node.setdefault(word, {})
                node[slot] = profile
        return _joined([root])

    @cached_property
    def max_phrase_len(self):
        """Word count of the longest phrase of any table, counted on first
        use like longest_negation."""
        keys = list(self.quantifiers) + list(self.comparatives) + list(self.negation_words)
        return max((len(k) for k in keys), default=1)

    @cached_property
    def longest_negation(self):
        """Word count of the longest negation phrase, counted on first use:
        add negation phrases before polarizing with the lexicon."""
        return max(map(len, self.negation_words), default=0)

    def is_negation_phrase(self, words):
        return tuple([w.lower() for w in words]) in self.negation_words

    def is_conditional(self, word):
        return word.lower() in self.conditional_words


def _joined(nodes):
    """One node of phrase_trie for `nodes`, nodes of the plain trie that
    one span reaches, in order of precedence: its profiles are the first
    quantifier and the first comparative among them, and each edge leads
    to the nodes their edges of that word lead to, joined. A NUM token
    reaches the nodes its word leads to, then those NUM_WILDCARD leads
    to, so they stay ordered by wildcard mask (bit j set when the span's
    j-th NUM token took the wildcard): a literal form beats NUM_WILDCARD,
    the more so at a later NUM."""
    node = {}
    for n in reversed(nodes):
        for slot in (0, 1):
            if slot in n:
                node[slot] = n[slot]
    wildcard = [n[NUM_WILDCARD] for n in nodes if NUM_WILDCARD in n]
    for word in {w for n in nodes for w in n if isinstance(w, str)}:
        literal = [n[word] for n in nodes if word in n]
        node[word] = _joined(literal)
        if wildcard:
            node[NUM_WILDCARD, word] = _joined(literal + wildcard)
    return node


def _surface_key(surface):
    words = tuple(NUM_WILDCARD if w == "n" else w for w in surface.lower().split())
    if not words:
        raise ValueError("empty surface form")
    return words


def read_rows(path, name=None):
    """The rows of a data table as (name, line number, line).

    The file is read like an input file (`read_text`), and lines end at
    "\n" only, as in CoNLL-U input. Blank lines and '#' comments are
    skipped. A row loses trailing whitespace and leading spaces, but not a
    leading tab: that ends an empty first field. `name` stands for the
    table in error messages; it defaults to the path.
    """
    name = str(path) if name is None else name
    for lineno, raw in enumerate(read_text(path, name).split("\n"), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield name, lineno, raw.rstrip().lstrip(" ")


def bundled_rows(filename):
    """The rows of a table shipped in udpolarity/data, named <builtin>."""
    return read_rows(os.path.join(os.path.dirname(__file__), "data", filename), "<builtin>")


def _load_quantifier_rows(rows, target):
    sources = {}  # key -> name of the table that defined it
    for name, lineno, line in rows:
        parts = line.split("\t")
        if len(parts) != 4:
            raise LexiconError(f"{name} line {lineno}: expected 4 tab-separated fields")
        surface, first, second, category = parts
        try:
            key = _surface_key(surface)
            first, second = Polarity.from_symbol(first), Polarity.from_symbol(second)
            if category not in CATEGORIES:
                raise ValueError(f"unknown quantifier category {category!r}")
            if (category == "negation") != ((first, second) == (_DOWN, _DOWN)):
                raise ValueError(
                    "category 'negation' must coincide with a (down, down) profile: "
                    f"{' '.join(key)}"
                )
        except ValueError as exc:
            raise LexiconError(f"{name} line {lineno}: {exc}") from None
        if key in sources:
            raise LexiconError(
                f"duplicate quantifier {' '.join(key)!r} in {name} line {lineno} "
                f"(already defined in {sources[key]})"
            )
        sources[key] = name
        target[key] = QuantifierProfile(key, first, second, category)


def _load_implicative_rows(rows, target):
    sources = {}  # lemma -> name of the table that defined it
    for name, lineno, line in rows:
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0]:
            raise LexiconError(f"{name} line {lineno}: expected lemma<TAB>direction")
        lemma, direction = parts[0].lower(), parts[1].lower()
        if direction not in ("downward", "upward"):
            raise LexiconError(f"{name} line {lineno}: direction must be downward|upward")
        if lemma in sources:
            raise LexiconError(
                f"duplicate implicative {lemma!r} in {name} line {lineno} "
                f"(already defined in {sources[lemma]})"
            )
        sources[lemma] = name
        target[lemma] = direction == "downward"


def load_lexicon(quantifier_paths=(), implicative_paths=()):
    """Build a Lexicon from the bundled tables plus optional user files.

    User files may override bundled entries; the same surface form defined
    twice across (or within) user files is an error naming both sources.
    """
    lex = Lexicon()
    # each call refuses a key its own rows define twice, so a user file may
    # replace a bundled row; nothing else may define a key twice
    _load_quantifier_rows(bundled_rows("quantifiers.tsv"), lex.quantifiers)
    _load_quantifier_rows(chain(*map(read_rows, quantifier_paths)), lex.quantifiers)
    _load_quantifier_rows(bundled_rows("comparatives.tsv"), lex.comparatives)
    _load_implicative_rows(bundled_rows("implicatives.tsv"), lex.implicatives)
    _load_implicative_rows(chain(*map(read_rows, implicative_paths)), lex.implicatives)
    for _name, _lineno, line in bundled_rows("negation_words.txt"):
        lex.negation_words.add(tuple(line.lower().split()))
    for _name, _lineno, line in bundled_rows("conditional_words.txt"):
        lex.conditional_words.add(line.lower())
    return lex
