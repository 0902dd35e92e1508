"""Scoring predicted polarity marks against gold annotations.

Token- and sentence-level accuracy are computed over all tokens or over key
tokens only (content words plus determiners and numbers, the tokens that
carry most of the monotonicity signal). Robustness is reported as one-vs-
rest precision/recall/F1 per polarity label. Punctuation and other unscored
tokens (mark None on the prediction side) are excluded throughout.
"""

from types import MappingProxyType
from typing import NamedTuple

from .conllu import sentence_blocks
from .polarity import Polarity

KEY_UPOS = {"NOUN", "PROPN", "VERB", "ADJ", "ADV", "DET", "NUM"}

LABELS = (Polarity.UP, Polarity.DOWN, Polarity.FLAT)

LABEL_NAMES = {Polarity.UP: "Monotone", Polarity.DOWN: "Antitone", Polarity.FLAT: "None"}


class AlignmentError(Exception):
    """Prediction and gold sentences do not line up."""


class GoldSentence(NamedTuple):
    sent_id: str
    tokens: list  # (form, upos, Polarity) triples


class ScoredToken:
    def __init__(self, form, upos, predicted, gold):
        self.form = form
        self.upos = upos
        self.predicted = predicted  # Polarity | None (None = unscored)
        self.gold = gold


class EvalReport(NamedTuple):
    token_acc_all: float
    token_acc_key: float
    sent_acc_all: float
    sent_acc_key: float
    prf_all: dict  # Polarity -> (precision|None, recall|None, f1|None)
    prf_key: dict
    counts: dict = MappingProxyType({})  # a shared default, so read-only


def is_key_token(upos):
    """Content words plus determiners and numbers."""
    return upos in KEY_UPOS


def _scored(pairs, key_only):
    """Yield per-sentence lists of ScoredToken that enter the metrics."""
    for sent in pairs:
        kept = []
        for tok in sent:
            if tok.predicted is None:
                continue  # unscored (punctuation)
            if key_only and not is_key_token(tok.upos):
                continue
            kept.append(tok)
        yield kept


def align(predicted, gold):
    """Pair system output with gold sentences, checking token identity.

    `predicted` holds the (Token, mark) pairs of each sentence (the
    `tokens` of an AnnotatedSentence), `gold` a list of GoldSentence in the
    same order. Returns the pair lists consumed by the metric functions.
    """
    if len(predicted) != len(gold):
        raise AlignmentError(
            f"{len(predicted)} predicted sentences vs {len(gold)} gold sentences"
        )
    pairs = []
    for tokens, gs in zip(predicted, gold):
        if len(tokens) != len(gs.tokens):
            raise AlignmentError(
                f"sentence {gs.sent_id}: {len(tokens)} predicted tokens "
                f"vs {len(gs.tokens)} gold tokens"
            )
        sent = []
        for (tok, mark), (form, upos, gmark) in zip(tokens, gs.tokens):
            if tok.form != form:
                raise AlignmentError(
                    f"sentence {gs.sent_id}: token {tok.id} form {tok.form!r} "
                    f"does not match gold {form!r}"
                )
            sent.append(ScoredToken(form=form, upos=upos, predicted=mark, gold=gmark))
        pairs.append(sent)
    return pairs


def token_accuracy(pairs, key_only=False):
    """Percentage of scored tokens whose predicted mark equals gold."""
    correct = total = 0
    for sent in _scored(pairs, key_only):
        for tok in sent:
            total += 1
            correct += tok.predicted is tok.gold
    return 100.0 * correct / total if total else 100.0


def sentence_accuracy(pairs, key_only=False):
    """Percentage of sentences with every scored token correct."""
    if not pairs:
        return 100.0
    good = 0
    for sent in _scored(pairs, key_only):
        good += all(tok.predicted is tok.gold for tok in sent)
    return 100.0 * good / len(pairs)


def prf_per_label(pairs, key_only=False):
    """One-vs-rest precision/recall/F1 for each polarity label.

    A component is None ("n/a") when its denominator is empty, rather than
    a silently deflating zero.
    """
    tp = {lab: 0 for lab in LABELS}
    fp = {lab: 0 for lab in LABELS}
    fn = {lab: 0 for lab in LABELS}
    for sent in _scored(pairs, key_only):
        for tok in sent:
            if tok.predicted is tok.gold:
                tp[tok.gold] += 1
            else:
                fp[tok.predicted] += 1
                fn[tok.gold] += 1
    out = {}
    for lab in LABELS:
        p = 100.0 * tp[lab] / (tp[lab] + fp[lab]) if tp[lab] + fp[lab] else None
        r = 100.0 * tp[lab] / (tp[lab] + fn[lab]) if tp[lab] + fn[lab] else None
        if p is None or r is None or p + r == 0:
            f1 = None if (p is None or r is None) else 0.0
        else:
            f1 = 2 * p * r / (p + r)
        out[lab] = (p, r, f1)
    return out


def evaluate(pairs):
    """Full report: both accuracy levels and per-label robustness."""
    counts = {
        "sentences": len(pairs),
        "tokens_scored_all": sum(len(s) for s in _scored(pairs, False)),
        "tokens_scored_key": sum(len(s) for s in _scored(pairs, True)),
    }
    return EvalReport(
        token_acc_all=token_accuracy(pairs, False),
        token_acc_key=token_accuracy(pairs, True),
        sent_acc_all=sentence_accuracy(pairs, False),
        sent_acc_key=sentence_accuracy(pairs, True),
        prf_all=prf_per_label(pairs, False),
        prf_key=prf_per_label(pairs, True),
        counts=counts,
    )


def load_gold(path):
    """Read a gold file: sent_id<TAB>form<TAB>upos<TAB>mark per token,
    blank line between sentences."""
    with open(path, encoding="utf-8") as f:
        text = f.read().removeprefix("\ufeff")
    sentences = []
    for first_line, _ordinal, lines in sentence_blocks(text):
        tokens = []
        for lineno, line in enumerate(lines, start=first_line):
            if line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ValueError(f"gold line {lineno}: expected 4 tab-separated fields")
            sid, form, upos, mark = parts
            try:
                pol = Polarity.from_symbol(mark)
            except ValueError as exc:
                raise ValueError(f"gold line {lineno}: {exc}") from None
            if not tokens:
                sent_id = sid
            tokens.append((form, upos, pol))
        if tokens:
            sentences.append(GoldSentence(sent_id=sent_id, tokens=tokens))
    return sentences


def _fmt(value):
    return "n/a" if value is None else f"{value:.1f}"


def render_report(report, system="ours"):
    """Human-readable tables: accuracy block plus per-label robustness."""
    lines = []
    lines.append("Token-level accuracy")
    lines.append(f"  acc(all-tokens)  {report.token_acc_all:.1f}")
    lines.append(f"  acc(key-tokens)  {report.token_acc_key:.1f}")
    lines.append("Sentence-level accuracy")
    lines.append(f"  acc(all-tokens)  {report.sent_acc_all:.1f}")
    lines.append(f"  acc(key-tokens)  {report.sent_acc_key:.1f}")
    for title, prf in (("All Tokens", report.prf_all), ("Key Tokens", report.prf_key)):
        lines.append(f"Robustness ({title}), system: {system}")
        header = "  {:<12}".format("Polarity") + "".join(
            f"{LABEL_NAMES[lab]:>12}" for lab in LABELS
        )
        lines.append(header)
        for row_name, idx in (("precision", 0), ("recall", 1), ("F1-score", 2)):
            row = "  {:<12}".format(row_name) + "".join(
                f"{_fmt(prf[lab][idx]):>12}" for lab in LABELS
            )
            lines.append(row)
    return "\n".join(lines)


def render_report_kv(report):
    """Machine-readable key=value dump of every figure in the report."""
    lines = [
        f"token_accuracy_all={report.token_acc_all:.6f}",
        f"token_accuracy_key={report.token_acc_key:.6f}",
        f"sentence_accuracy_all={report.sent_acc_all:.6f}",
        f"sentence_accuracy_key={report.sent_acc_key:.6f}",
    ]
    for scope, prf in (("all", report.prf_all), ("key", report.prf_key)):
        for lab in LABELS:
            p, r, f1 = prf[lab]
            tag = lab.name.lower()
            for metric, value in (("precision", p), ("recall", r), ("f1", f1)):
                text = "n/a" if value is None else f"{value:.6f}"
                lines.append(f"{tag}_{metric}_{scope}={text}")
    for key, value in report.counts.items():
        lines.append(f"{key}={value}")
    return "\n".join(lines)
