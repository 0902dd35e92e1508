"""Rule-driven polarization of binarized dependency trees.

Every relation label dispatches to a rule. A rule first hands its own mark
down to both children (the root starts monotone), recurses, and then
applies whatever operator its relation calls for, ↓ (negation) or =
(equalization); marks and operators are the same Polarity values:

* subject and complement relations recurse into the head side first, so a
  determiner-driven clause flip coming from the dependent side lands on
  marks that already exist;
* clause-modifier relations pin their modifier clause to monotone before
  recursing (inheriting an antitone mark there would double a later
  negation) and then negate or flatten it against the head's mark;
* determiner-family relations look the quantifier phrase up in the lexicon,
  give the head nominal the profile's first-argument mark, and flip or
  flatten everything outside the phrase when the second argument calls for
  it;
* adverbial/case relations let negation operators like "not" or "without"
  negate the constituent they modify, and conditional markers negate the
  antecedent clause they introduce.

Complement relations finally negate their dependent when the governing
predicate is a downward-entailing implicative ("refused to go").

A rule is a generator: it yields each child to polarize, in its own order,
and resumes once that child's whole subtree is done. The polarizer keeps
the rules in progress on an explicit stack, so tree depth is bounded by
memory, not by the interpreter's recursion limit.
"""

from typing import NamedTuple

from .binarize import BinaryDepTree
from .lexicon import is_downward_operator, load_lexicon
from .polarity import (
    _DOWN,
    _FLAT,
    _UP,
    MarkError,
    equalize_subtree,
    negate_subtree,
    topdown_equalization,
    topdown_negation,
)

SUBJECT_RELATIONS = {"nsubj", "nsubj:pass", "csubj", "csubj:pass"}
COMPLEMENT_RELATIONS = {"obj", "iobj", "xcomp", "ccomp"}
CLAUSE_MOD_RELATIONS = {"acl:relcl", "acl", "advcl", "advcl-sent"}
DETERMINER_RELATIONS = {"det", "det:predet", "nummod"}
ADVERBIAL_RELATIONS = {"advmod", "advmod-sent", "case"}

# upos that terminate the leftward scan for a quantifier phrase
_PHRASE_STOP_UPOS = {"NOUN", "PROPN", "VERB", "AUX", "PUNCT"}
_PHRASE_SCAN_LIMIT = 6


class AnnotatedSentence(NamedTuple):
    """Token-level marks plus the fully marked tree behind them."""

    tokens: list  # (Token, Polarity | None) pairs; None = unscored (punct)
    tree: BinaryDepTree


def _inherit(node):
    node.left.mark = node.right.mark = node.mark
    return node.mark


def _leaf_tokens(node):
    return sorted((leaf.val for leaf in node.leaves()), key=lambda t: t.id)


def _scan_quantifier_phrase(det_node, lexicon, tokens_by_id):
    """Find the quantifier phrase governing a det/nummod node.

    Candidates are the left subtree's tokens plus any contiguous run of
    non-content tokens immediately before them (UD scatters phrases like
    "all of the" over several relations). The longest lexicon entry
    matching a contiguous candidate span wins, provided only function
    material stands between the span and the governed head.
    """
    left_tokens = _leaf_tokens(det_node.left)
    seq = list(left_tokens)
    i = seq[0].id - 1
    while i >= 1 and len(seq) - len(left_tokens) < _PHRASE_SCAN_LIMIT:
        tok = tokens_by_id.get(i)
        if tok is None or tok.upos in _PHRASE_STOP_UPOS:
            break
        seq.insert(0, tok)
        i -= 1
    head_min = det_node.right.min_id
    max_len = lexicon.max_phrase_len
    for anchor in range(len(seq)):
        for span_len in range(min(max_len, len(seq) - anchor), 0, -1):
            span = seq[anchor : anchor + span_len]
            if span[-1].id - span[0].id != span_len - 1:
                continue  # demand surface contiguity
            profile = lexicon.profile(span)
            if profile is None:
                continue
            gap = [
                tokens_by_id[j]
                for j in range(span[-1].id + 1, head_min)
                if j in tokens_by_id
            ]
            if any(t.upos in {"NOUN", "PROPN", "VERB", "AUX", "ADJ", "PUNCT"} for t in gap):
                continue
            covered = {t.id for t in span} | {t.id for t in gap}
            return profile, covered
    return None, set()


def apply_word_rule(node, lexicon, suppressed=frozenset()):
    """Word-level rule hook for the dependent side of a relation node.

    Negation operators under an adverbial-modifier or case relation negate
    the sibling constituent; a conditional marker under `mark` negates the
    clause it introduces (the antecedent). Returns True when a rule fired.
    """
    parent = node.parent
    if parent is None or node is not parent.left:
        return False
    # Stop one leaf past the longest negation phrase, once a leaf is not
    # suppressed. Right children first reach a leaf without walking down a
    # dependent nested on the left.
    longest = lexicon.longest_negation
    tokens = []
    all_suppressed = bool(suppressed)
    stack = [node]
    while stack and (all_suppressed or len(tokens) <= longest):
        item = stack.pop()
        if item.left is not None:
            stack += (item.left, item.right)
        else:
            tokens.append(item.val)
            all_suppressed = all_suppressed and item.val.id in suppressed
    if all_suppressed:
        return False
    label = parent.val
    if label in ADVERBIAL_RELATIONS and len(tokens) <= longest:
        tokens.sort(key=lambda t: t.id)
        if lexicon.is_negation_phrase([t.form for t in tokens]):
            negate_subtree(parent.right)
            return True
    if label == "mark":
        head = node.head_leaf().val
        if lexicon.is_conditional(head.form) or lexicon.is_conditional(head.lemma):
            negate_subtree(parent.right)
            return True
    return False


class _Run:
    """One polarization pass over one tree (single-threaded per sentence)."""

    def __init__(self, lexicon):
        self.lexicon = lexicon
        self.tokens_by_id = {}
        self.suppressed = set()

    def polarize(self, tree):
        if tree.left is not None and tree.left.mark is not None:
            raise MarkError("the tree is polarized already")
        self.tokens_by_id = {leaf.val.id: leaf.val for leaf in tree.leaves()}
        if tree.mark is None:
            tree.mark = _UP
        if tree.left is not None:
            self.visit(tree)
        # the walk resolves every pending operator down to the leaves
        for node in tree.nodes():
            if node.mark is None:
                raise MarkError("polarization left a node unmarked")
        return tree

    def visit(self, node):
        """Run the rule of an internal node and, depth first, the rules of
        the nodes it yields, keeping the rules in progress on a stack."""
        rule = RULES.get
        stack = [rule(node.val, rule_default)(self, node)]
        while stack:
            child = next(stack[-1], None)
            if child is None:
                stack.pop()
            elif child.left is not None:
                stack.append(rule(child.val, rule_default)(self, child))


def _react(trigger, target):
    """Negate the target under an antitone trigger, flatten it under =."""
    if trigger.mark is _DOWN:
        negate_subtree(target)
    elif trigger.mark is _FLAT:
        equalize_subtree(target)


def rule_default(run, node):
    """Inherit, recurse dependent side then head side, then react to the
    head's final mark (backward negation / equalization). The reaction
    fires only when the head's mark moved away from the inherited one;
    plain inheritance of an antitone context must not self-trigger."""
    base = _inherit(node)
    yield node.left
    yield node.right
    if node.right.mark is not base:
        _react(node.right, node.left)


def rule_argument(run, node):
    """Subject and complement relations: polarize the predicate first so
    that clause-level flips triggered from the argument land on assigned
    marks. The backward reaction to the predicate's mark is applied to the
    argument's root mark before recursing into it (applying it afterwards
    would re-flip marks a negation quantifier just set)."""
    base = _inherit(node)
    yield node.right
    if node.right.mark is not base:
        node.left.mark = node.right.mark * node.left.mark
    yield node.left
    if node.val in COMPLEMENT_RELATIONS:
        verb = node.right.head_leaf().val
        if is_downward_operator(verb.lemma or verb.form, run.lexicon):
            negate_subtree(node.left)


def rule_clause_mod(run, node):
    """Relative/adverbial/noun clause modifiers: the modifier clause starts
    monotone regardless of the inherited mark, then is negated or
    flattened according to the modified head's mark."""
    node.right.mark = node.mark
    node.left.mark = _UP
    yield node.right
    yield node.left
    _react(node.right, node.left)


def rule_determiner(run, node):
    """det/det:predet/nummod: apply the quantifier profile.

    The governed nominal takes the profile's first-argument mark. A
    second argument of v flips the clause outside the determiner subtree
    (negation-type quantifiers), = flattens it (exact-cardinality); the
    phrase's own words keep the inherited mark. A bare numeral with no
    quantifier reads as "at least n": the numeral flips against its
    context. Anything else defaults to an existential profile.
    """
    node.left.mark = node.mark
    outside = _UP  # the operator on the clause outside the phrase
    profile, covered = _scan_quantifier_phrase(node, run.lexicon, run.tokens_by_id)
    if profile is not None:
        run.suppressed |= covered
        node.right.mark = profile.first_arg
        outside = profile.second_arg
    elif node.val == "nummod" and node.left.head_leaf().val.upos == "NUM":
        node.left.mark = node.mark.flipped()
        node.right.mark = node.mark
    else:
        node.right.mark = _UP  # unknown determiner: existential reading
    yield node.left
    yield node.right
    if node.parent is not None:
        if outside is _DOWN:
            topdown_negation(node)
        elif outside is _FLAT:
            topdown_equalization(node)


def rule_adverbial(run, node):
    """advmod/case: the dependent is polarized after the head material so a
    negation operator ("not", "without", "than") can negate its sibling;
    otherwise the forward reactions to the dependent's mark apply."""
    base = _inherit(node)
    yield node.right
    yield node.left
    if apply_word_rule(node.left, run.lexicon, run.suppressed):
        return
    if node.left.mark is not base:
        _react(node.left, node.right)


def rule_mark(run, node):
    """Clause markers: "if" negates the antecedent clause it introduces."""
    _inherit(node)
    yield node.right
    yield node.left
    apply_word_rule(node.left, run.lexicon, run.suppressed)


# relation label -> rule; every other label takes rule_default
RULES = {
    **dict.fromkeys(SUBJECT_RELATIONS | COMPLEMENT_RELATIONS, rule_argument),
    **dict.fromkeys(CLAUSE_MOD_RELATIONS, rule_clause_mod),
    **dict.fromkeys(DETERMINER_RELATIONS, rule_determiner),
    **dict.fromkeys(ADVERBIAL_RELATIONS, rule_adverbial),
    "mark": rule_mark,
}


def polarize(tree, lexicon=None):
    """Assign a polarity mark to every node of a freshly binarized tree.

    The root may carry a start mark (↑ when it has none); a tree whose
    root's children are marked already is a MarkError.
    """
    if lexicon is None:
        lexicon = load_lexicon()
    return _Run(lexicon).polarize(tree)


def project_to_tokens(tree, graph):
    """Read the per-token marks off a fully marked tree.

    Punctuation tokens are carried with a None mark (unscored); every other
    token must be marked.
    """
    marks = {}
    for leaf in tree.leaves():
        tok = leaf.val
        if tok.is_punct:
            marks[tok.id] = None
            continue
        if leaf.mark is None:
            raise MarkError(f"token {tok.id} ({tok.form!r}) has no mark")
        marks[tok.id] = leaf.mark
    pairs = [(tok, marks[tok.id]) for tok in graph.tokens]
    return AnnotatedSentence(tokens=pairs, tree=tree)
