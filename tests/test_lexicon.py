import pytest

from udpolarity import (
    LexiconError,
    Polarity,
    Token,
    binarize,
    is_downward_operator,
    load_lexicon,
    polarize,
    project_to_tokens,
    render_inline,
)

from .conftest import annotate, graph_of

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


# ------------------------------------------------------- implicatives

def test_refuse_is_downward(lexicon):
    assert is_downward_operator("refuse", lexicon)


def test_eat_is_not_downward(lexicon):
    assert not is_downward_operator("eat", lexicon)


def test_forget_is_downward(lexicon):
    assert is_downward_operator("forget", lexicon)
    assert is_downward_operator("Forget", lexicon)


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


def test_implicative_user_file_extends_defaults(tmp_path):
    extra = tmp_path / "imp.tsv"
    extra.write_text("hesitate\tdownward\nmanage\tupward\n", encoding="utf-8")
    lex = load_lexicon(implicative_paths=[extra])
    assert is_downward_operator("hesitate", lex)
    assert not is_downward_operator("manage", lex)
    assert is_downward_operator("refuse", lex)
