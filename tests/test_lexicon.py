import random

import pytest

from udpolarity import (
    LexiconError,
    Polarity,
    Token,
    binarize,
    load_lexicon,
    polarize,
    project_to_tokens,
    render_inline,
)
from udpolarity.lexicon import (
    Lexicon,
    QuantifierProfile,
    _surface_key,
    bundled_rows,
    read_rows,
)

from .conftest import annotate, graph_of, reference_profile

UP, DOWN, FLAT = Polarity.UP, Polarity.DOWN, Polarity.FLAT


def profile_pair(profile):
    return (profile.first_arg, profile.second_arg)


def test_default_table_has_15_quantifiers(lexicon):
    assert len(lexicon.quantifiers) == 15


def test_default_profiles_match_published_table(lexicon):
    expected = {
        ("every",): (DOWN, UP, "universal"),
        ("each",): (DOWN, UP, "universal"),
        ("all",): (DOWN, UP, "universal"),
        ("no",): (DOWN, DOWN, "negation"),
        ("less", "than"): (DOWN, DOWN, "negation"),
        ("at", "most"): (DOWN, DOWN, "negation"),
        ("exactly", "<num>"): (FLAT, FLAT, "exact"),
        ("the",): (FLAT, UP, "exact"),
        ("this",): (FLAT, UP, "exact"),
        ("some",): (UP, UP, "existential"),
        ("several",): (UP, UP, "existential"),
        ("a",): (UP, UP, "existential"),
        ("an",): (UP, UP, "existential"),
        ("most",): (FLAT, UP, "other"),
        ("few",): (FLAT, DOWN, "other"),
    }
    got = {
        key: (p.first_arg, p.second_arg, p.category)
        for key, p in lexicon.quantifiers.items()
    }
    assert got == expected


def test_negation_category_iff_down_down(lexicon):
    for profile in lexicon.quantifiers.values():
        neg_marks = profile_pair(profile) == (DOWN, DOWN)
        assert (profile.category == "negation") == neg_marks


def test_negation_words_cover_required_operators(lexicon):
    required = {("no",), ("not",), ("none",), ("nobody",), ("at", "most"), ("less", "than")}
    assert required <= lexicon.negation_words


def test_conditional_words_contain_if(lexicon):
    assert lexicon.is_conditional("if")
    assert lexicon.is_conditional("If")
    assert not lexicon.is_conditional("to")


# ------------------------------------------------------- span lookup

def span(*words):
    """The tokens of a phrase; a word written in digits is tagged NUM."""
    return [
        Token(i, w, w.lower(), "NUM" if w.isdigit() else "DET", 0, "dep")
        for i, w in enumerate(words, start=1)
    ]


def test_lookup_every(lexicon):
    profile = lexicon.profile(span("every"))
    assert profile_pair(profile) == (DOWN, UP)
    assert profile.category == "universal"


def test_lookup_exactly_n(lexicon):
    profile = lexicon.profile(span("exactly", "5"))
    assert profile_pair(profile) == (FLAT, FLAT)
    assert profile.category == "exact"
    assert profile is lexicon.quantifiers[("exactly", "<num>")]
    assert lexicon.profile(span("exactly", "many")) is None  # not a NUM token


def test_lookup_det_node_with_scattered_phrase():
    # "all" reaches the det node of "the dogs" across "of": the governed
    # nominal takes the universal first-argument mark, not the FLAT of "the"
    ann = annotate(
        [
            (1, "all", "all", "DET", 0, "root"),
            (2, "of", "of", "ADP", 4, "case"),
            (3, "the", "the", "DET", 4, "det"),
            (4, "dogs", "dog", "NOUN", 1, "nmod"),
        ]
    )
    assert [mark for _tok, mark in ann.tokens] == [UP, UP, UP, DOWN]


def test_lookup_unknown_determiner_is_none(lexicon):
    assert lexicon.profile(span("yonder")) is None


def test_lookup_case_insensitive(lexicon):
    assert lexicon.profile(span("Every")) is lexicon.profile(span("every"))


def test_user_literal_number_beats_builtin_num_wildcard(tmp_path):
    user = tmp_path / "quant.tsv"
    user.write_text("exactly two\tup\tup\texistential\n", encoding="utf-8")
    lex = load_lexicon(quantifier_paths=[user])
    graph = graph_of(
        [
            (1, "Exactly", "exactly", "ADV", 2, "advmod"),
            (2, "two", "two", "NUM", 3, "nummod"),
            (3, "dogs", "dog", "NOUN", 4, "nsubj"),
            (4, "bark", "bark", "VERB", 0, "root"),
        ]
    )
    assert lex.profile(graph.tokens[:2]).category == "existential"
    tree = binarize(graph)
    polarize(tree, lex)
    assert render_inline(project_to_tokens(tree, graph)) == "Exactly↑ two↑ dogs↑ bark↑"


def test_quantifier_rows_are_read_until_the_first_polarize():
    # the phrase trie is built at a lexicon's first polarize() and kept:
    # a row added before it changes the marks, a row added after it does not
    rows = [
        (1, "zorp", "zorp", "DET", 2, "det"),
        (2, "dogs", "dog", "NOUN", 3, "nsubj"),
        (3, "bark", "bark", "VERB", 0, "root"),
    ]
    universal = QuantifierProfile(("zorp",), DOWN, UP, "universal")

    def marks(lex):
        graph = graph_of(rows)
        tree = binarize(graph)
        polarize(tree, lex)
        return render_inline(project_to_tokens(tree, graph))

    early = load_lexicon()
    early.quantifiers[("zorp",)] = universal
    assert marks(early) == "zorp↑ dogs↓ bark↑"
    late = load_lexicon()
    assert marks(late) == "zorp↑ dogs↑ bark↑"  # no row: the noun keeps ↑
    late.quantifiers[("zorp",)] = universal
    assert marks(late) == "zorp↑ dogs↑ bark↑"


# the words of the random tables and spans: numerals in digits and in
# words, and other words, any of which a span may tag NUM; "n" in a
# surface stands for any NUM token
TRIE_WORDS = ["all", "of", "the", "more", "than", "2", "two", "3"]


def random_surface(rng, shape):
    """A table key: `shape` gives the positions of NUM_WILDCARD ("n")."""
    return " ".join("n" if w else rng.choice(TRIE_WORDS) for w in shape)


def random_trie_lexicon(rng):
    """A lexicon whose tables have multi-word keys with "n" first, in the
    middle, last and twice, literal numerals beside wildcard rows, and a
    surface in both tables."""
    shapes = [(1,), (1, 0), (0, 1, 0), (0, 1), (1, 1), (1, 0, 1), (0,), (0, 0), (0, 0, 0)]
    surfaces = [random_surface(rng, rng.choice(shapes)) for _ in range(rng.randint(4, 14))]
    # a literal numeral row beside each of some wildcard rows
    surfaces += [s.replace("n", rng.choice(["2", "3", "two"]), 1)
                 for s in surfaces if "n" in s.split() and rng.random() < 0.5]
    lex = Lexicon()
    for table, category in ((lex.quantifiers, "other"), (lex.comparatives, "comparative")):
        for surface in surfaces:
            if rng.random() < 0.6:
                key = _surface_key(surface)
                table[key] = QuantifierProfile(key, UP, UP, category)
    key = _surface_key(rng.choice(surfaces))  # a surface in both tables
    lex.quantifiers[key] = QuantifierProfile(key, UP, UP, "other")
    lex.comparatives[key] = QuantifierProfile(key, UP, UP, "comparative")
    return lex


def random_trie_span(rng):
    """Tokens of mixed case; numerals and other words are tagged NUM or not."""
    tokens = []
    for i in range(1, rng.randint(1, 7)):
        word = rng.choice(TRIE_WORDS + ["dog"])
        form = rng.choice([word, word.upper(), word.title()])
        numeral = word in ("2", "two", "3")
        upos = "NUM" if rng.random() < (0.8 if numeral else 0.2) else "DET"
        tokens.append(Token(i, form, word, upos, 0, "dep"))
    return tokens


def test_phrase_walk_matches_reference_profile():
    rng = random.Random(2104)
    found = not_literal = both = 0
    for _ in range(400):
        lex = random_trie_lexicon(rng)
        for _ in range(25):
            tokens = random_trie_span(rng)
            # as the polarizer indexes them, by id from 1
            toks = [None] + tokens
            for start in range(1, len(toks)):
                expected = []
                for length in range(len(toks) - start, 0, -1):
                    span = tokens[start - 1:start - 1 + length]
                    profile = reference_profile(lex, span)
                    assert lex.profile(span) == profile
                    if profile is not None:
                        expected.append((length, profile))
                        # the key read by its forms lost to another key
                        literal = tuple([t.form.lower() for t in span])
                        not_literal += profile.surface != literal
                        both += (profile.category == "other"
                                 and profile.surface in lex.comparatives)
                assert lex.phrases_at(toks, start) == expected
                found += bool(expected)
    assert found > 3000 and not_literal > 1000 and both > 100, (found, not_literal, both)


# ------------------------------------------------------- implicatives

def complement_mark(lexicon, lemma):
    """The mark polarize gives `go` in "they <lemma> to go": a downward
    implicative negates its complement (↓), another verb leaves it ↑."""
    graph = graph_of(
        [
            (1, "they", "they", "PRON", 2, "nsubj"),
            (2, "verbed", lemma, "VERB", 0, "root"),
            (3, "to", "to", "PART", 4, "mark"),
            (4, "go", "go", "VERB", 2, "xcomp"),
        ]
    )
    tree = binarize(graph)
    polarize(tree, lexicon)
    return project_to_tokens(tree, graph).tokens[3][1]


def test_refuse_is_downward(lexicon):
    assert lexicon.implicatives["refuse"] is True
    assert complement_mark(lexicon, "refuse") is DOWN


def test_eat_is_not_downward(lexicon):
    assert "eat" not in lexicon.implicatives
    assert complement_mark(lexicon, "eat") is UP


def test_forget_is_downward(lexicon):
    assert lexicon.implicatives["forget"] is True
    # the table's lemmas are lowercase, and the rule lowercases the lemma
    assert complement_mark(lexicon, "forget") is DOWN
    assert complement_mark(lexicon, "Forget") is DOWN


# ------------------------------------------------------- loading

def test_user_file_overrides_default(tmp_path):
    override = tmp_path / "quant.tsv"
    override.write_text("most\tflat\tflat\texact\n", encoding="utf-8")
    lex = load_lexicon(quantifier_paths=[override])
    assert profile_pair(lex.quantifiers[("most",)]) == (FLAT, FLAT)
    assert len(lex.quantifiers) == 15  # replaced, not added


def test_duplicate_rows_in_user_file_error(tmp_path):
    dup = tmp_path / "quant.tsv"
    dup.write_text("few\tflat\tdown\tother\nfew\tup\tup\texistential\n", encoding="utf-8")
    with pytest.raises(LexiconError, match="few"):
        load_lexicon(quantifier_paths=[dup])


def test_duplicate_across_user_files_error(tmp_path):
    f1 = tmp_path / "a.tsv"
    f2 = tmp_path / "b.tsv"
    f1.write_text("most\tflat\tflat\texact\n", encoding="utf-8")
    f2.write_text("most\tup\tup\texistential\n", encoding="utf-8")
    with pytest.raises(LexiconError, match="a.tsv"):
        load_lexicon(quantifier_paths=[f1, f2])


def test_malformed_row_reports_line_number(tmp_path):
    bad = tmp_path / "quant.tsv"
    bad.write_text("# comment\nmost flat flat exact\n", encoding="utf-8")
    with pytest.raises(LexiconError, match="line 2"):
        load_lexicon(quantifier_paths=[bad])


def test_bad_mark_symbol_reports_line(tmp_path):
    bad = tmp_path / "quant.tsv"
    bad.write_text("zorp\tsideways\tup\tother\n", encoding="utf-8")
    with pytest.raises(LexiconError, match="line 1"):
        load_lexicon(quantifier_paths=[bad])


def test_negation_profile_validation(tmp_path):
    bad = tmp_path / "quant.tsv"
    bad.write_text("nary\tdown\tup\tnegation\n", encoding="utf-8")
    with pytest.raises(LexiconError, match="negation"):
        load_lexicon(quantifier_paths=[bad])


def test_unknown_category_names_file_and_line(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("bogus\tup\tup\tbogus\n", encoding="utf-8")
    with pytest.raises(LexiconError) as info:
        load_lexicon(quantifier_paths=[bad])
    assert str(info.value) == f"{bad} line 1: unknown quantifier category 'bogus'"


def test_negation_category_error_names_file_and_line(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("nary a\tdown\tup\tnegation\n", encoding="utf-8")
    with pytest.raises(LexiconError) as info:
        load_lexicon(quantifier_paths=[bad])
    assert str(info.value) == (
        f"{bad} line 1: category 'negation' must coincide with a (down, down) profile: nary a"
    )


@pytest.mark.parametrize("row", ["\tup\tup\tother", "  \tup\tup\tother", " \tup\tup\tother  "])
def test_empty_surface_field_names_file_and_line(tmp_path, row):
    # a leading tab ends an empty first field; stripping it would shift
    # the fields one place left
    bad = tmp_path / "quant.tsv"
    bad.write_text(f"# comment\n{row}\n", encoding="utf-8")
    with pytest.raises(LexiconError) as info:
        load_lexicon(quantifier_paths=[bad])
    assert str(info.value) == f"{bad} line 2: empty surface form"


def test_empty_implicative_lemma_names_file_and_line(tmp_path):
    bad = tmp_path / "impl.tsv"
    bad.write_text("\tdownward\n", encoding="utf-8")
    with pytest.raises(LexiconError) as info:
        load_lexicon(implicative_paths=[bad])
    assert str(info.value) == f"{bad} line 1: expected lemma<TAB>direction"


def test_rows_keep_a_leading_tab_and_end_at_newlines_only(tmp_path):
    table = tmp_path / "t.tsv"
    table.write_text(
        "  a\tb \n\t\n\t# a comment\n  # a comment\n\tc\t\nd\u2028e\tf\n", encoding="utf-8"
    )
    assert [row[1:] for row in read_rows(table)] == [(1, "a\tb"), (5, "\tc"), (6, "d\u2028e\tf")]


def test_implicative_user_file_extends_defaults(tmp_path):
    extra = tmp_path / "imp.tsv"
    extra.write_text("hesitate\tdownward\nmanage\tupward\n", encoding="utf-8")
    lex = load_lexicon(implicative_paths=[extra])
    assert (lex.implicatives["hesitate"], lex.implicatives["manage"]) == (True, False)
    assert complement_mark(lex, "hesitate") is DOWN
    assert complement_mark(lex, "manage") is UP
    assert complement_mark(lex, "refuse") is DOWN


@pytest.mark.parametrize(
    "table, row, kind",
    [
        ("quantifiers.tsv", "all\tdown\tup\tuniversal", "quantifier 'all'"),
        ("comparatives.tsv", "more\tup\tflat\tcomparative", "quantifier 'more'"),
        ("implicatives.tsv", "refuse\tdownward", "implicative 'refuse'"),
    ],
)
def test_key_repeated_in_a_bundled_table_errors(tmp_path, monkeypatch, table, row, kind):
    bundled = tmp_path / table
    bundled.write_text(f"{row}\n# again\n{row}\n", encoding="utf-8")
    monkeypatch.setattr(
        "udpolarity.lexicon.bundled_rows",
        lambda name: read_rows(bundled, "<builtin>") if name == table else bundled_rows(name),
    )
    with pytest.raises(LexiconError) as info:
        load_lexicon()
    assert str(info.value) == (
        f"duplicate {kind} in <builtin> line 3 (already defined in <builtin>)"
    )
