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
    def __init__(self):
        self.quantifiers = {}  # surface tuple -> profile
        self.comparatives = {}  # surface tuple -> profile
        self.implicatives = {}  # lemma -> downward bool
        self.negation_words = set()  # surface tuples
        self.conditional_words = set()  # single lowercase words

    def profile(self, tokens):
        """Profile of a contiguous token span, or None. Quantifiers beat
        comparatives; within a table a literal form beats NUM_WILDCARD,
        which stands for any NUM token."""
        keys = [tuple([t.form.lower() for t in tokens])]
        for i, tok in enumerate(tokens):
            if tok.upos == "NUM":
                keys += [key[:i] + (NUM_WILDCARD,) + key[i + 1 :] for key in keys]
        for table in (self.quantifiers, self.comparatives):
            for key in keys:
                profile = table.get(key)
                if profile is not None:
                    return profile
        return None

    @cached_property
    def max_phrase_len(self):
        """Word count of the longest phrase of any table, counted on first
        use like longest_negation."""
        keys = list(self.quantifiers) + list(self.comparatives) + list(self.negation_words)
        return max((len(k) for k in keys), default=1)

    @cached_property
    def first_words(self):
        """First word -> word count of the longest quantifier or
        comparative phrase it starts (NUM_WILDCARD stands for any NUM
        token): a span has no profile unless its first word is here and it
        is no longer than that. Collected on first use, like
        max_phrase_len."""
        longest = {}
        for key in chain(self.quantifiers, self.comparatives):
            longest[key[0]] = max(longest.get(key[0], 0), len(key))
        return longest

    @cached_property
    def longest_negation(self):
        """Word count of the longest negation phrase, counted on first use:
        add negation phrases before polarizing with the lexicon."""
        return max(map(len, self.negation_words), default=0)

    def is_negation_phrase(self, words):
        return tuple(w.lower() for w in words) in self.negation_words

    def is_conditional(self, word):
        return word.lower() in self.conditional_words


def is_downward_operator(lemma, lexicon):
    """True iff the lemma carries a downward-entailing implicative entry."""
    return lexicon.implicatives.get(lemma.lower(), False)


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
