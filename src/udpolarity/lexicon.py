"""Word-level polarity knowledge: quantifier profiles, implicative verbs,
negation operators and conditional markers.

The default tables ship with the package; each can be extended or
overridden by user files of the same format. Lookups are case-insensitive
and multi-word surface forms are supported throughout.
"""

from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources

from .polarity import Polarity

NUM_WILDCARD = "<num>"

CATEGORIES = {"universal", "negation", "exact", "existential", "other", "comparative"}


class LexiconError(Exception):
    """Malformed or conflicting lexicon data."""


@dataclass(frozen=True)
class QuantifierProfile:
    surface: tuple  # lowercase word forms; NUM_WILDCARD matches any NUM token
    first_arg: Polarity
    second_arg: Polarity
    category: str

    def __post_init__(self):
        if self.category not in CATEGORIES:
            raise LexiconError(f"unknown quantifier category {self.category!r}")
        is_neg_marks = (self.first_arg, self.second_arg) == (Polarity.DOWN, Polarity.DOWN)
        if (self.category == "negation") != is_neg_marks:
            raise LexiconError(
                "category 'negation' must coincide with a (down, down) profile: "
                f"{' '.join(self.surface)}"
            )


@dataclass
class Lexicon:
    quantifiers: dict = field(default_factory=dict)  # surface tuple -> profile
    comparatives: dict = field(default_factory=dict)  # surface tuple -> profile
    implicatives: dict = field(default_factory=dict)  # lemma -> downward bool
    negation_words: set = field(default_factory=set)  # surface tuples
    conditional_words: set = field(default_factory=set)  # single lowercase words

    def profile(self, tokens):
        """Profile of a contiguous token span, or None. Quantifiers beat
        comparatives; within a table a literal form beats NUM_WILDCARD,
        which stands for any NUM token."""
        keys = [tuple(t.form.lower() for t in tokens)]
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
    words = []
    for w in surface.lower().split():
        words.append(NUM_WILDCARD if w == "n" else w)
    if not words:
        raise LexiconError("empty surface form")
    return tuple(words)


def _read_rows(source, is_path):
    if is_path:
        with open(source, encoding="utf-8") as f:
            text = f.read()
        name = str(source)
    else:
        text, name = source, "<builtin>"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield name, lineno, line


def _load_quantifier_rows(rows, target, sources, allow_override):
    for name, lineno, line in rows:
        parts = line.split("\t")
        if len(parts) != 4:
            raise LexiconError(f"{name} line {lineno}: expected 4 tab-separated fields")
        surface, first, second, category = parts
        key = _surface_key(surface)
        try:
            profile = QuantifierProfile(
                key, Polarity.from_symbol(first), Polarity.from_symbol(second), category
            )
        except ValueError as exc:
            raise LexiconError(f"{name} line {lineno}: {exc}") from None
        if key in sources and not (allow_override and sources[key] == "<builtin>"):
            raise LexiconError(
                f"duplicate quantifier {' '.join(key)!r} in {name} line {lineno} "
                f"(already defined in {sources[key]})"
            )
        sources[key] = name
        target[key] = profile


def _load_implicative_rows(rows, target, sources, allow_override):
    for name, lineno, line in rows:
        parts = line.split("\t")
        if len(parts) != 2:
            raise LexiconError(f"{name} line {lineno}: expected lemma<TAB>direction")
        lemma, direction = parts[0].lower(), parts[1].lower()
        if direction not in ("downward", "upward"):
            raise LexiconError(f"{name} line {lineno}: direction must be downward|upward")
        if lemma in sources and not (allow_override and sources[lemma] == "<builtin>"):
            raise LexiconError(
                f"duplicate implicative {lemma!r} in {name} line {lineno} "
                f"(already defined in {sources[lemma]})"
            )
        sources[lemma] = name
        target[lemma] = direction == "downward"


def _load_phrase_rows(rows, target):
    for _name, _lineno, line in rows:
        target.add(tuple(line.lower().split()))


def _builtin(name):
    return resources.files("udpolarity.data").joinpath(name).read_text("utf-8")


def load_lexicon(
    quantifier_paths=(),
    implicative_paths=(),
    negation_paths=(),
    conditional_paths=(),
    include_defaults=True,
):
    """Build a Lexicon from the bundled defaults plus optional user files.

    User files may override default entries; the same surface form defined
    twice across (or within) user files is an error naming both sources.
    """
    lex = Lexicon()

    quant_sources = {}
    imp_sources = {}
    if include_defaults:
        _load_quantifier_rows(
            _read_rows(_builtin("quantifiers.tsv"), False),
            lex.quantifiers, quant_sources, allow_override=False,
        )
        _load_quantifier_rows(
            _read_rows(_builtin("comparatives.tsv"), False),
            lex.comparatives, {}, allow_override=False,
        )
        _load_implicative_rows(
            _read_rows(_builtin("implicatives.tsv"), False),
            lex.implicatives, imp_sources, allow_override=False,
        )
        _load_phrase_rows(_read_rows(_builtin("negation_words.txt"), False), lex.negation_words)
        for _n, _l, line in _read_rows(_builtin("conditional_words.txt"), False):
            lex.conditional_words.add(line.lower())

    for path in quantifier_paths:
        _load_quantifier_rows(
            _read_rows(path, True), lex.quantifiers, quant_sources, allow_override=True
        )
    for path in implicative_paths:
        _load_implicative_rows(
            _read_rows(path, True), lex.implicatives, imp_sources, allow_override=True
        )
    for path in negation_paths:
        _load_phrase_rows(_read_rows(path, True), lex.negation_words)
    for path in conditional_paths:
        for _n, _l, line in _read_rows(path, True):
            lex.conditional_words.add(line.lower())
    return lex
