"""Scoring predicted polarity marks against gold annotations.

Token- and sentence-level accuracy are computed over all tokens or over key
tokens only (content words plus determiners and numbers, the tokens that
carry most of the monotonicity signal). Robustness is reported as one-vs-
rest precision/recall/F1 per polarity label. Punctuation and other unscored
tokens (mark None on the prediction side) are excluded throughout.
"""

from collections import namedtuple

from .conllu import read_text
from .polarity import _SYMBOLS, Polarity

KEY_UPOS = {"NOUN", "PROPN", "VERB", "ADJ", "ADV", "DET", "NUM"}

LABELS = (Polarity.UP, Polarity.DOWN, Polarity.FLAT)

LABEL_NAMES = {Polarity.UP: "Monotone", Polarity.DOWN: "Antitone", Polarity.FLAT: "None"}


class AlignmentError(Exception):
    """Prediction and gold sentences do not line up."""


# tokens: (form, upos, Polarity) triples
GoldSentence = namedtuple("GoldSentence", "sent_id tokens")


class ScoredToken:
    __slots__ = ("form", "upos", "predicted", "gold")  # predicted: Polarity | None (unscored)

    def __init__(self, form, upos, predicted, gold):
        self.form, self.upos, self.predicted, self.gold = form, upos, predicted, gold


# prf_all, prf_key: Polarity -> (precision|None, recall|None, f1|None);
# counts: sentences, tokens_scored_all, tokens_scored_key
EvalReport = namedtuple("EvalReport", "token_acc_all token_acc_key sent_acc_all sent_acc_key "
                                      "prf_all prf_key counts")


def is_key_token(upos):
    """Content words plus determiners and numbers."""
    return upos in KEY_UPOS


def align(predicted, gold):
    """Pair system output with gold sentences, checking token identity.

    `predicted` holds each sentence's (token, mark) pairs, a token being
    a Token (the `tokens` of an AnnotatedSentence) or any tuple that starts
    with its id and form, as the CLI sends; `gold` a list of GoldSentence
    in the same order. Returns the pair lists consumed by the metric functions.
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
            if tok[1] != form:
                raise AlignmentError(
                    f"sentence {gs.sent_id}: token {tok[0]} form {tok[1]!r} "
                    f"does not match gold {form!r}"
                )
            sent.append(ScoredToken(form, upos, mark, gmark))
        pairs.append(sent)
    return pairs


def _scopes(pairs):
    """(token accuracy, sentence accuracy, P/R/F1 per label, scored tokens)
    of all tokens and of key tokens only, from one pass that counts the
    scored tokens per (gold mark, predicted mark, is key) and, in each
    scope, the sentences whose scored tokens are all right."""
    cells = dict.fromkeys([(g, p, k) for g in LABELS for p in LABELS for k in (False, True)], 0)
    right_all = right_key = 0
    for sent in pairs:
        wrong_all = wrong_key = False
        for tok in sent:
            predicted = tok.predicted
            if predicted is None:
                continue  # unscored (punctuation)
            key = tok.upos in KEY_UPOS
            cells[tok.gold, predicted, key] += 1
            if predicted is not tok.gold:
                wrong_all = True
                wrong_key = wrong_key or key
        right_all += not wrong_all
        right_key += not wrong_key
    figures = []
    for keys, right in (((False, True), right_all), ((True,), right_key)):
        scope = {(g, p): sum(cells[g, p, k] for k in keys) for g in LABELS for p in LABELS}
        prf = {}
        for lab in LABELS:
            tp = scope[lab, lab]
            as_predicted = sum(scope[gold, lab] for gold in LABELS)
            in_gold = sum(scope[lab, pred] for pred in LABELS)
            p = 100.0 * tp / as_predicted if as_predicted else None
            r = 100.0 * tp / in_gold if in_gold else None
            f1 = None if p is None or r is None else (2 * p * r / (p + r) if p + r else 0.0)
            prf[lab] = (p, r, f1)
        tokens = sum(scope.values())
        correct = sum(scope[lab, lab] for lab in LABELS)
        token_acc = 100.0 * correct / tokens if tokens else 100.0
        sent_acc = 100.0 * right / len(pairs) if pairs else 100.0
        figures.append((token_acc, sent_acc, prf, tokens))
    return figures


def token_accuracy(pairs, key_only=False):
    """Percentage of scored tokens whose predicted mark equals gold."""
    return _scopes(pairs)[bool(key_only)][0]


def sentence_accuracy(pairs, key_only=False):
    """Percentage of sentences with every scored token correct."""
    return _scopes(pairs)[bool(key_only)][1]


def prf_per_label(pairs, key_only=False):
    """One-vs-rest precision/recall/F1 for each polarity label.

    A component is None ("n/a") when its denominator is empty, rather than
    a silently deflating zero.
    """
    return _scopes(pairs)[bool(key_only)][2]


def evaluate(pairs):
    """Full report: both accuracy levels and per-label robustness, from
    one pass over the pairs."""
    (tok_all, sent_all, prf_all, n_all), (tok_key, sent_key, prf_key, n_key) = _scopes(pairs)
    counts = {"sentences": len(pairs), "tokens_scored_all": n_all, "tokens_scored_key": n_key}
    return EvalReport(tok_all, tok_key, sent_all, sent_key, prf_all, prf_key, counts)


def load_gold(path):
    """Read a gold file: sent_id<TAB>form<TAB>upos<TAB>mark per token,
    blank line between sentences, one pass over its lines."""
    sentences = []
    tokens = []
    for lineno, line in enumerate([*read_text(path).split("\n"), ""], start=1):
        if "#" in line and line.lstrip().startswith("#"):
            continue
        if line.strip():
            try:
                sid, form, upos, mark = line.split("\t")
            except ValueError:
                raise ValueError(f"gold line {lineno}: expected 4 tab-separated fields") from None
            try:
                pol = _SYMBOLS.get(mark) or Polarity.from_symbol(mark)
            except ValueError as exc:
                raise ValueError(f"gold line {lineno}: {exc}") from None
            if not tokens:
                sent_id = sid
            tokens.append((form, upos, pol))
        elif tokens:  # a blank or whitespace-only line, or the "" after the last, ends it
            sentences.append(GoldSentence(sent_id, tokens))
            tokens = []
    return sentences


def _fmt(value, digits):
    return "n/a" if value is None else f"{value:.{digits}f}"


def render_report(report):
    """Human-readable tables: accuracy block plus per-label robustness."""
    lines = [
        "Token-level accuracy",
        f"  acc(all-tokens)  {report.token_acc_all:.1f}",
        f"  acc(key-tokens)  {report.token_acc_key:.1f}",
        "Sentence-level accuracy",
        f"  acc(all-tokens)  {report.sent_acc_all:.1f}",
        f"  acc(key-tokens)  {report.sent_acc_key:.1f}",
    ]
    for title, prf in (("All Tokens", report.prf_all), ("Key Tokens", report.prf_key)):
        lines.append(f"Robustness ({title}), system: ours")
        names = "".join(f"{LABEL_NAMES[lab]:>12}" for lab in LABELS)
        lines.append(f"  {'Polarity':<12}{names}")
        for idx, row in enumerate(("precision", "recall", "F1-score")):
            cells = "".join(f"{_fmt(prf[lab][idx], 1):>12}" for lab in LABELS)
            lines.append(f"  {row:<12}{cells}")
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
            for metric, value in zip(("precision", "recall", "f1"), prf[lab]):
                lines.append(f"{lab.name.lower()}_{metric}_{scope}={_fmt(value, 6)}")
    for key, value in report.counts.items():
        lines.append(f"{key}={value}")
    return "\n".join(lines)
