"""Scoring predicted polarity marks against gold annotations.

Token- and sentence-level accuracy are computed over all tokens or over key
tokens only (content words plus determiners and numbers, the tokens that
carry most of the monotonicity signal). Robustness is reported as one-vs-
rest precision/recall/F1 per polarity label. Punctuation and other unscored
tokens (mark None on the prediction side) are excluded throughout.
"""

from collections import namedtuple

from .conllu import read_text, sentence_blocks
from .polarity import Polarity

KEY_UPOS = {"NOUN", "PROPN", "VERB", "ADJ", "ADV", "DET", "NUM"}

LABELS = (Polarity.UP, Polarity.DOWN, Polarity.FLAT)

LABEL_NAMES = {Polarity.UP: "Monotone", Polarity.DOWN: "Antitone", Polarity.FLAT: "None"}


class AlignmentError(Exception):
    """Prediction and gold sentences do not line up."""


# tokens: (form, upos, Polarity) triples
GoldSentence = namedtuple("GoldSentence", "sent_id tokens")


class ScoredToken:
    def __init__(self, form, upos, predicted, gold):
        self.form = form
        self.upos = upos
        self.predicted = predicted  # Polarity | None (None = unscored)
        self.gold = gold


# prf_all, prf_key: Polarity -> (precision|None, recall|None, f1|None);
# counts: sentences, tokens_scored_all, tokens_scored_key
EvalReport = namedtuple("EvalReport", "token_acc_all token_acc_key sent_acc_all sent_acc_key "
                                      "prf_all prf_key counts")


def is_key_token(upos):
    """Content words plus determiners and numbers."""
    return upos in KEY_UPOS


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


def _scope(pairs, key_only):
    """(token accuracy, sentence accuracy, P/R/F1 per label, scored tokens)
    of one scope, all tokens or key tokens only, from one pass that counts
    the scored tokens per (gold, predicted) pair of marks and the sentences
    whose scored tokens are all right."""
    cells = dict.fromkeys([(g, p) for g in LABELS for p in LABELS], 0)
    right = 0
    for sent in pairs:
        wrong = False
        for tok in sent:
            predicted = tok.predicted
            if predicted is None or key_only and tok.upos not in KEY_UPOS:
                continue  # unscored (punctuation), or not a key token
            cells[tok.gold, predicted] += 1
            wrong = wrong or predicted is not tok.gold
        right += not wrong
    prf = {}
    for lab in LABELS:
        tp = cells[lab, lab]
        as_predicted = sum(cells[gold, lab] for gold in LABELS)
        in_gold = sum(cells[lab, pred] for pred in LABELS)
        p = 100.0 * tp / as_predicted if as_predicted else None
        r = 100.0 * tp / in_gold if in_gold else None
        f1 = None if p is None or r is None else (2 * p * r / (p + r) if p + r else 0.0)
        prf[lab] = (p, r, f1)
    tokens = sum(cells.values())
    correct = sum(cells[lab, lab] for lab in LABELS)
    token_acc = 100.0 * correct / tokens if tokens else 100.0
    sent_acc = 100.0 * right / len(pairs) if pairs else 100.0
    return token_acc, sent_acc, prf, tokens


def token_accuracy(pairs, key_only=False):
    """Percentage of scored tokens whose predicted mark equals gold."""
    return _scope(pairs, key_only)[0]


def sentence_accuracy(pairs, key_only=False):
    """Percentage of sentences with every scored token correct."""
    return _scope(pairs, key_only)[1]


def prf_per_label(pairs, key_only=False):
    """One-vs-rest precision/recall/F1 for each polarity label.

    A component is None ("n/a") when its denominator is empty, rather than
    a silently deflating zero.
    """
    return _scope(pairs, key_only)[2]


def evaluate(pairs):
    """Full report: both accuracy levels and per-label robustness, from
    one pass over each scope."""
    tok_all, sent_all, prf_all, n_all = _scope(pairs, False)
    tok_key, sent_key, prf_key, n_key = _scope(pairs, True)
    counts = {"sentences": len(pairs), "tokens_scored_all": n_all, "tokens_scored_key": n_key}
    return EvalReport(tok_all, tok_key, sent_all, sent_key, prf_all, prf_key, counts)


def load_gold(path):
    """Read a gold file: sent_id<TAB>form<TAB>upos<TAB>mark per token,
    blank line between sentences."""
    sentences = []
    for first_line, _ordinal, lines in sentence_blocks(read_text(path)):
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
