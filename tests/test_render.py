import pytest

from udpolarity import render, render_dot, render_inline, render_sexpr, render_tsv

from .conftest import ALL_DOGS_EAT_APPLES, annotate


def test_inline_utf8():
    ann = annotate(ALL_DOGS_EAT_APPLES)
    assert render_inline(ann) == "All↑ dogs↓ eat↑ apples↑"


def test_inline_flat_and_unscored():
    ann = annotate(
        [
            (1, "the", "the", "DET", 2, "det"),
            (2, "rabbit", "rabbit", "NOUN", 0, "root"),
            (3, ".", ".", "PUNCT", 2, "punct"),
        ]
    )
    assert render_inline(ann) == "the↑ rabbit= ."


def test_tsv_rows():
    ann = annotate(ALL_DOGS_EAT_APPLES)
    rows = render_tsv(ann).splitlines()
    assert rows == [
        "1\tAll\tDET\t^",
        "2\tdogs\tNOUN\tv",
        "3\teat\tVERB\t^",
        "4\tapples\tNOUN\t^",
    ]


def test_sexpr_render():
    ann = annotate(ALL_DOGS_EAT_APPLES)
    assert render_sexpr(ann) == "(nsubj^ (det^ All^ dogs v) (obj^ eat^ apples^))"


def test_dot_structure_and_escaping():
    ann = annotate(
        [
            (1, 'say', 'say', 'VERB', 0, 'root'),
            (2, '"hi"', '"hi"', 'NOUN', 1, 'obj'),
        ]
    )
    dot = render_dot(ann, index=3)
    assert dot.startswith("digraph sentence_3 {")
    assert '\\"hi\\"' in dot
    assert dot.count("->") == 2


def test_unknown_format_is_a_value_error_naming_it():
    with pytest.raises(ValueError, match="unknown output format 'svg'"):
        render(annotate(ALL_DOGS_EAT_APPLES), "svg")
