import random

import pytest

from udpolarity import (
    AlignmentError,
    GoldSentence,
    Polarity,
    align,
    evaluate,
    is_key_token,
    load_gold,
    prf_per_label,
    render_report,
    render_report_kv,
    sentence_accuracy,
    token_accuracy,
)
from udpolarity.evaluation import LABELS, ScoredToken

UP, DOWN, FLAT = Polarity.UP, Polarity.DOWN, Polarity.FLAT


def sent(*triples):
    """Build a scored sentence from (predicted, gold, upos) triples."""
    return [
        ScoredToken(form=f"w{i}", upos=upos, predicted=pred, gold=gold)
        for i, (pred, gold, upos) in enumerate(triples)
    ]


# ------------------------------------------------------------ key tokens

@pytest.mark.parametrize(
    "upos,expected",
    [
        ("NOUN", True),
        ("PROPN", True),
        ("VERB", True),
        ("ADJ", True),
        ("ADV", True),
        ("DET", True),
        ("NUM", True),
        ("ADP", False),
        ("AUX", False),
        ("PRON", False),
        ("PART", False),
        ("SCONJ", False),
        ("PUNCT", False),
    ],
)
def test_is_key_token(upos, expected):
    assert is_key_token(upos) is expected


# ------------------------------------------------------------ accuracy

def test_token_accuracy_perfect():
    pairs = [sent((UP, UP, "NOUN"), (DOWN, DOWN, "VERB"))]
    assert token_accuracy(pairs) == 100.0


def test_token_accuracy_three_of_four():
    pairs = [sent((UP, UP, "NOUN"), (UP, UP, "VERB"), (DOWN, UP, "ADJ"), (UP, UP, "DET"))]
    assert token_accuracy(pairs) == 75.0


def test_token_accuracy_total_mismatch():
    pairs = [sent((DOWN, UP, "NOUN"), (DOWN, UP, "VERB"))]
    assert token_accuracy(pairs) == 0.0


def test_token_accuracy_key_only_ignores_function_words():
    pairs = [sent((UP, UP, "NOUN"), (DOWN, UP, "ADP"))]
    assert token_accuracy(pairs, key_only=True) == 100.0
    assert token_accuracy(pairs, key_only=False) == 50.0


def test_unscored_tokens_excluded():
    pairs = [sent((UP, UP, "NOUN"), (None, UP, "PUNCT"))]
    assert token_accuracy(pairs) == 100.0


def test_sentence_accuracy_both_correct():
    pairs = [sent((UP, UP, "NOUN")), sent((DOWN, DOWN, "VERB"))]
    assert sentence_accuracy(pairs) == 100.0


def test_sentence_accuracy_one_wrong_key_token():
    pairs = [sent((UP, UP, "NOUN")), sent((DOWN, UP, "NOUN"), (UP, UP, "VERB"))]
    assert sentence_accuracy(pairs, key_only=True) == 50.0


def test_sentence_accuracy_error_only_on_non_key():
    pairs = [sent((UP, UP, "NOUN"), (DOWN, UP, "ADP"))]
    assert sentence_accuracy(pairs, key_only=True) == 100.0
    assert sentence_accuracy(pairs, key_only=False) == 0.0


# ------------------------------------------------------------ P/R/F1

def test_prf_perfect():
    pairs = [sent((UP, UP, "NOUN"), (DOWN, DOWN, "VERB"), (FLAT, FLAT, "ADJ"))]
    prf = prf_per_label(pairs)
    for lab in LABELS:
        assert prf[lab] == (100.0, 100.0, 100.0)


def test_prf_worked_example():
    # gold [UP, UP, DOWN, FLAT], predicted [UP, DOWN, DOWN, FLAT]
    pairs = [
        sent((UP, UP, "NOUN"), (DOWN, UP, "NOUN"), (DOWN, DOWN, "NOUN"), (FLAT, FLAT, "NOUN"))
    ]
    prf = prf_per_label(pairs)
    p, r, f1 = prf[UP]
    assert (p, r) == (100.0, 50.0)
    assert abs(f1 - 200.0 / 3.0) < 1e-9
    p, r, f1 = prf[DOWN]
    assert (p, r) == (50.0, 100.0)
    assert abs(f1 - 200.0 / 3.0) < 1e-9
    assert prf[FLAT] == (100.0, 100.0, 100.0)


def test_prf_undefined_precision_marker():
    # gold contains FLAT but prediction never emits it
    pairs = [sent((UP, FLAT, "NOUN"), (UP, UP, "NOUN"))]
    prf = prf_per_label(pairs)
    p, r, _f1 = prf[FLAT]
    assert p is None
    assert r == 0.0


def test_prf_absent_label_reports_undefined_not_zero():
    pairs = [sent((UP, UP, "NOUN"))]
    prf = prf_per_label(pairs)
    assert prf[DOWN] == (None, None, None)


# ------------------------------------------------------------ oracle

def brute_force_metrics(pairs, key_only):
    """Independent recount straight from the definition."""
    kept = []
    for s in pairs:
        row = [
            t
            for t in s
            if t.predicted is not None
            and (not key_only or t.upos in {"NOUN", "PROPN", "VERB", "ADJ", "ADV", "DET", "NUM"})
        ]
        kept.append(row)
    n_tok = sum(len(r) for r in kept)
    n_correct = sum(1 for r in kept for t in r if t.predicted == t.gold)
    tok_acc = 100.0 * n_correct / n_tok if n_tok else 100.0
    sent_acc = (
        100.0 * sum(1 for r in kept if all(t.predicted == t.gold for t in r)) / len(kept)
        if kept
        else 100.0
    )
    prf = {}
    for lab in LABELS:
        tp = sum(1 for r in kept for t in r if t.gold == lab and t.predicted == lab)
        fp = sum(1 for r in kept for t in r if t.gold != lab and t.predicted == lab)
        fn = sum(1 for r in kept for t in r if t.gold == lab and t.predicted != lab)
        p = 100.0 * tp / (tp + fp) if tp + fp else None
        r_ = 100.0 * tp / (tp + fn) if tp + fn else None
        if p is None or r_ is None:
            f1 = None
        elif p + r_ == 0:
            f1 = 0.0
        else:
            f1 = 2 * p * r_ / (p + r_)
        prf[lab] = (p, r_, f1)
    return tok_acc, sent_acc, prf


def test_metrics_match_brute_force_oracle():
    rng = random.Random(99)
    upos_pool = ["NOUN", "VERB", "ADJ", "ADP", "DET", "NUM", "PRON", "PUNCT"]
    marks = [UP, DOWN, FLAT]
    for _ in range(200):
        pairs = []
        for _s in range(rng.randint(1, 5)):
            triples = []
            for _t in range(rng.randint(1, 12)):
                upos = rng.choice(upos_pool)
                pred = None if upos == "PUNCT" else rng.choice(marks)
                gold = rng.choice(marks)
                triples.append((pred, gold, upos))
            pairs.append(sent(*triples))
        for key_only in (False, True):
            tok_acc, sent_acc, prf = brute_force_metrics(pairs, key_only)
            assert abs(token_accuracy(pairs, key_only) - tok_acc) < 1e-9
            assert abs(sentence_accuracy(pairs, key_only) - sent_acc) < 1e-9
            got = prf_per_label(pairs, key_only)
            for lab in LABELS:
                for a, b in zip(got[lab], prf[lab]):
                    if a is None or b is None:
                        assert a is None and b is None
                    else:
                        assert abs(a - b) < 1e-9


def test_correcting_a_token_never_hurts():
    rng = random.Random(5)
    for _ in range(50):
        triples = [
            (rng.choice([UP, DOWN, FLAT]), rng.choice([UP, DOWN, FLAT]), "NOUN")
            for _ in range(6)
        ]
        pairs = [sent(*triples)]
        base = (token_accuracy(pairs), sentence_accuracy(pairs))
        wrong = [i for i, t in enumerate(pairs[0]) if t.predicted != t.gold]
        if not wrong:
            continue
        fix = rng.choice(wrong)
        pairs[0][fix].predicted = pairs[0][fix].gold
        assert token_accuracy(pairs) >= base[0]
        assert sentence_accuracy(pairs) >= base[1]


def test_key_only_equals_all_on_key_only_corpus():
    rng = random.Random(17)
    pairs = [
        sent(*[(rng.choice([UP, DOWN]), rng.choice([UP, DOWN]), "NOUN") for _ in range(8)])
        for _ in range(10)
    ]
    assert token_accuracy(pairs, True) == token_accuracy(pairs, False)
    assert sentence_accuracy(pairs, True) == sentence_accuracy(pairs, False)


# ------------------------------------------------------------ gold files

def test_load_gold_mini_corpus():
    from .conftest import DATA

    gold = load_gold(DATA / "mini_gold.tsv")
    assert len(gold) == 10
    assert gold[0].sent_id == "t2-comparative"
    assert gold[0].tokens[0] == ("More", "DET", UP)


def test_load_gold_empty_file(tmp_path):
    path = tmp_path / "gold.tsv"
    path.write_text("", encoding="utf-8")
    assert load_gold(path) == []


def test_load_gold_bad_mark(tmp_path):
    path = tmp_path / "gold.tsv"
    path.write_text("s1\tdog\tNOUN\tx\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        load_gold(path)


def test_load_gold_splits_like_conllu_and_names_absolute_lines(tmp_path):
    path = tmp_path / "gold.tsv"
    rows = [
        "s1\tdogs\tNOUN\t^",  # line 1
        "   ",  # a whitespace-only line ends a sentence
        "  # an indented comment",
        "s2\tcats\tNOUN\tv",
        "s2\tsleep\tVERB\t^",
        "",
        "s3\tbirds\tNOUN",  # line 7: three fields
    ]
    path.write_text("\n".join(rows[:6]) + "\n", encoding="utf-8")
    gold = load_gold(path)
    assert [g.sent_id for g in gold] == ["s1", "s2"]
    assert [len(g.tokens) for g in gold] == [1, 2]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="gold line 7:"):
        load_gold(path)


# ------------------------------------------------------------ alignment

def _annotated_stub(forms):
    from .conftest import annotate

    rows = [(i + 1, f, f.lower(), "NOUN", 0 if i == 0 else 1, "root" if i == 0 else "nmod")
            for i, f in enumerate(forms)]
    return annotate(rows)


def test_align_length_mismatch():
    ann = _annotated_stub(["a", "b"])
    gold = [GoldSentence("g1", [("a", "NOUN", UP)])]
    with pytest.raises(AlignmentError, match="g1"):
        align([ann.tokens], gold)


def test_align_form_mismatch():
    ann = _annotated_stub(["a", "b"])
    gold = [GoldSentence("g1", [("a", "NOUN", UP), ("c", "NOUN", UP)])]
    with pytest.raises(AlignmentError, match="g1"):
        align([ann.tokens], gold)


# ------------------------------------------------------------ report text

def test_report_renders_nine_cells_per_scope():
    pairs = [sent((UP, UP, "NOUN"), (DOWN, DOWN, "VERB"), (FLAT, FLAT, "ADJ"))]
    report = evaluate(pairs)
    text = render_report(report)
    assert "acc(all-tokens)" in text and "acc(key-tokens)" in text
    for scope in ("All Tokens", "Key Tokens"):
        assert scope in text
    for header in ("Monotone", "Antitone", "None"):
        assert header in text
    for row in ("precision", "recall", "F1-score"):
        assert row in text
    kv = render_report_kv(report)
    for lab in ("up", "down", "flat"):
        for metric in ("precision", "recall", "f1"):
            assert f"{lab}_{metric}_all=" in kv
            assert f"{lab}_{metric}_key=" in kv
