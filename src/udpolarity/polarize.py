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
  antecedent clause they introduce: each of the two rules reads its
  dependent's words itself (its word rule).

Complement relations finally negate their dependent when the governing
predicate is a downward-entailing implicative ("refused to go").

A rule is a generator: it yields each internal child to polarize, in its
own order, and resumes once that child's whole subtree is done.
polarize() keeps the rules in progress on an explicit stack, so tree
depth is bounded by memory, not by the interpreter's recursion limit; the
rules share the tree, the lexicon and the sentence's _Phrases through a
_Run.

A determiner finds its quantifier phrase through _Phrases, built on the
sentence's first determiner: tokens by id (ids run 1..n; conllu refuses
any other), the last gap stop before each id as one prefix array filled
with them, and a dependent by its leaf run. The scans of all of a
sentence's determiners together take time linear in the sentence,
however they nest, except in a nest whose dependents are not projective:
a dependent whose ids span k words that start a phrase but are not its
own costs up to k steps to pass them. The phrases an id starts come from
one walk down the lexicon's phrase trie (Lexicon.phrases_at), one dict
probe for a word that starts none, and are kept per id for the
sentence's later determiners. The adverbial and mark rules ask
_Phrases whether the phrases cover their dependent, one pointer jump over
its leaf run.
"""

from collections import namedtuple

from .lexicon import load_lexicon
from .polarity import (
    _DOWN,
    _FLAT,
    _UP,
    MarkError,
    equalize_subtree,
    negate_subtree,
    push,
    topdown_equalization,
    topdown_negation,
)

SUBJECT_RELATIONS = {"nsubj", "nsubj:pass", "csubj", "csubj:pass"}
COMPLEMENT_RELATIONS = {"obj", "iobj", "xcomp", "ccomp"}
CLAUSE_MOD_RELATIONS = {"acl:relcl", "acl", "advcl", "advcl-sent"}
DETERMINER_RELATIONS = {"det", "det:predet", "nummod"}
ADVERBIAL_RELATIONS = {"advmod", "advmod-sent", "case"}

# upos that end the leftward scan for a quantifier phrase, and those that
# may not stand between a phrase and its head
_PHRASE_STOP_UPOS = {"NOUN", "PROPN", "VERB", "AUX", "PUNCT"}
_GAP_STOP_UPOS = _PHRASE_STOP_UPOS | {"ADJ"}
_PHRASE_SCAN_LIMIT = 6


# tokens: (Token, Polarity | None) pairs, None for an unscored token (punct);
# tree: a BinaryDepTree
AnnotatedSentence = namedtuple("AnnotatedSentence", "tokens tree")
AnnotatedSentence.__doc__ = "Token-level marks plus the fully marked tree behind them."


def _next(skip, i):
    """The first j >= i with skip[j] == j. skip[i] is i, or a later index
    up to which (not included) every index is passed; each index passed
    on the way is pointed at j."""
    j = i
    while skip[j] != j:
        j = skip[j]
    while i != j:
        skip[i], i = j, skip[i]
    return j


class _Phrases:
    """What a sentence's determiners read their quantifier phrases from,
    built on the sentence's first determiner: its tokens, their leaf
    positions and the last gap stop before each in lists indexed by id,
    and what its scans found so far (the phrases each id starts, and
    which ids may still start one), so that together they take time
    linear in the sentence (but see the module's docstring). A subtree is
    read by its leaf run: its leaves form one run of `size` leaves ending
    at its `head` word's leaf, so a token is in the subtree iff its leaf
    position lies in that run. The ids that the phrases found so far
    cover make the cover, kept by id and by leaf position.
    """

    def __init__(self, tree, lexicon):
        self.lexicon = lexicon
        leaves = tree.leaves()
        n = len(leaves)
        self.toks = toks = [None] * (n + 1)  # id -> token
        self.at = at = [0] * (n + 1)  # id -> leaf position
        for p, leaf in enumerate(leaves):
            i = leaf.val.id
            if not 0 < i <= n or toks[i] is not None:
                raise MarkError(f"token id {i}: the ids of a sentence must run 1..{n}")
            toks[i] = leaf.val
            at[i] = p
        self.floors = floors = [0] * (n + 1)  # id -> the last gap stop before it, or 0
        for i in range(2, n + 1):
            floors[i] = i - 1 if toks[i - 1].upos in _GAP_STOP_UPOS else floors[i - 1]
        self.matches = {}  # id -> [(length, profile)] of the phrases it starts, longest first
        # skip lists for _next(): ids that may start a phrase, and the ids
        # and leaf positions the cover leaves out
        self.live = list(range(n + 2))
        self.uncovered, self.open = self.live[:], self.live[:]

    def scan(self, det_node):
        """The quantifier phrase governing a det/nummod node, as (profile,
        first id, last id) of the ids it covers, or None.

        Candidates are the left subtree's tokens plus the run of up to
        _PHRASE_SCAN_LIMIT non-content tokens with consecutive ids
        immediately before them (UD scatters phrases like "all of the"
        over several relations). The leftmost anchor wins, then the
        longest lexicon entry matching a span of candidates with
        consecutive ids, provided only function material stands between
        the span and the governed head. The phrase covers its span and
        that material.
        """
        toks, at = self.toks, self.at
        dep = det_node.left
        first = dep.min_id
        start = first
        while first - start < _PHRASE_SCAN_LIMIT and start > 1:
            if toks[start - 1].upos in _PHRASE_STOP_UPOS:
                break
            start -= 1
        # a span passes iff it ends at or after `floor`, the last gap stop
        # before the head
        head = det_node.right.min_id
        floor = self.floors[head]
        start = max(start, floor - self.lexicon.max_phrase_len + 1)
        # the candidates: every id from `start` to `first`, then the
        # dependent's ids after it (`start` may lie past `first`), which
        # are those whose leaf position lies in its run lo..hi; an id that
        # starts no phrase leaves `live` for good
        hi = at[dep.head.id]
        lo = hi - dep.size + 1
        live, matches, top = self.live, self.matches, dep.max_id
        a = _next(live, start)
        while a <= top:
            found = matches.get(a)
            if found is None:
                found = matches[a] = self.lexicon.phrases_at(toks, a)
            if not found:
                live[a] = a + 1
            elif a <= first or lo <= at[a] <= hi:
                for length, profile in found:
                    end = a + length - 1
                    if end < floor:
                        break
                    if end <= first or all(lo <= at[i] <= hi for i in range(max(a, first) + 1, end + 1)):
                        return profile, a, end if end >= head else head - 1
            a = _next(live, a + 1)
        return None

    def suppress(self, first, last):
        """Add the ids from `first` to `last` to the cover, each at most
        once a sentence, and their leaf positions."""
        uncovered, open_, at = self.uncovered, self.open, self.at
        i = _next(uncovered, first)
        while i <= last:
            uncovered[i] = i + 1
            open_[at[i]] = at[i] + 1
            i = _next(uncovered, i + 1)

    def covers(self, node):
        """Whether the cover holds every word of the subtree `node`."""
        last = self.at[node.head.id]
        return _next(self.open, last - node.size + 1) > last


class _Run:
    """What the rules of one polarization pass over one tree share."""

    def __init__(self, tree, lexicon):
        self.tree = tree
        self.lexicon = lexicon
        self.phrases = None  # the sentence's _Phrases, once a determiner needs them


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
    base = node.left.mark = node.right.mark = node.mark
    if node.left.left is not None:
        yield node.left
    if node.right.left is not None:
        yield node.right
    if node.right.mark is not base:
        _react(node.right, node.left)


def rule_argument(run, node):
    """Subject and complement relations: polarize the predicate first so
    that clause-level flips triggered from the argument land on assigned
    marks. The backward reaction to the predicate's mark is applied to the
    argument's root mark before recursing into it (applying it afterwards
    would re-flip marks a negation quantifier just set)."""
    base = node.left.mark = node.right.mark = node.mark
    if node.right.left is not None:
        yield node.right
    if node.right.mark is not base:
        node.left.mark = node.right.mark * node.left.mark
    if node.left.left is not None:
        yield node.left
    if node.val in COMPLEMENT_RELATIONS:
        verb = node.right.head
        if run.lexicon.implicatives.get((verb.lemma or verb.form).lower(), False):
            negate_subtree(node.left)


def rule_clause_mod(run, node):
    """Relative/adverbial/noun clause modifiers: the modifier clause starts
    monotone regardless of the inherited mark, then is negated or
    flattened according to the modified head's mark."""
    node.right.mark = node.mark
    node.left.mark = _UP
    if node.right.left is not None:
        yield node.right
    if node.left.left is not None:
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

    The phrase comes from the sentence's _Phrases, and the ids it covers
    join the sentence's phrase cover: the adverbial and mark rules apply
    no word rule to a dependent the cover holds whole.
    """
    node.left.mark = node.mark
    outside = _UP  # the operator on the clause outside the phrase
    if run.phrases is None:
        run.phrases = _Phrases(run.tree, run.lexicon)
    found = run.phrases.scan(node)
    if found is not None:
        profile, first, last = found
        run.phrases.suppress(first, last)
        node.right.mark = profile.first_arg
        outside = profile.second_arg
    elif node.val == "nummod" and node.left.head.upos == "NUM":
        node.left.mark = node.mark.flipped()
        node.right.mark = node.mark
    else:
        node.right.mark = _UP  # unknown determiner: existential reading
    if node.left.left is not None:
        yield node.left
    if node.right.left is not None:
        yield node.right
    if node.parent is not None:
        if outside is _DOWN:
            topdown_negation(node)
        elif outside is _FLAT:
            topdown_equalization(node)


def rule_adverbial(run, node):
    """advmod/case: the dependent is polarized after the head material, so
    that a negation operator ("not", "without", "than") the phrases do not
    cover negates its sibling; otherwise the forward reactions to the
    dependent's mark apply."""
    base = node.left.mark = node.right.mark = node.mark
    if node.right.left is not None:
        yield node.right
    dep, lexicon = node.left, run.lexicon
    if dep.left is None:
        fires = (dep.val.form.lower(),) in lexicon.negation_words
    else:
        yield dep
        # a Token's id leads its tuple, and ids are unique: sorting the
        # tokens puts the words in id order
        fires = dep.size <= lexicon.longest_negation and lexicon.is_negation_phrase(
            [tok.form for tok in sorted([leaf.val for leaf in dep.leaves()])])
    if fires and (run.phrases is None or not run.phrases.covers(dep)):
        negate_subtree(node.right)
    elif dep.mark is not base:
        _react(dep, node.right)


def rule_mark(run, node):
    """Clause markers: a conditional ("if") the phrases do not cover
    negates the antecedent clause it introduces."""
    node.left.mark = node.right.mark = node.mark
    if node.right.left is not None:
        yield node.right
    if node.left.left is not None:
        yield node.left
    word, lexicon = node.left.head, run.lexicon
    if ((lexicon.is_conditional(word.form) or lexicon.is_conditional(word.lemma or word.form))
            and (run.phrases is None or not run.phrases.covers(node.left))):
        negate_subtree(node.right)


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
    root's children are marked already is a MarkError, and so is a tree
    with a determiner whose token ids do not run 1..n. Returns the tree
    with no parent link below its root: no rule reads them any more, and
    without them reference counting frees the tree.
    """
    if lexicon is None:
        lexicon = load_lexicon()
    if tree.left is not None and tree.left.mark is not None:
        raise MarkError("the tree is polarized already")
    if tree.mark is None:
        tree.mark = _UP
    if tree.left is not None:
        # run the root's rule and, depth first, the rules of the nodes it
        # yields, keeping the rules in progress on a stack; a rule yields
        # no leaf: a leaf has no rule to run
        run = _Run(tree, lexicon)
        rule = RULES.get
        stack = [rule(tree.val, rule_default)(run, tree)]
        while stack:
            child = next(stack[-1], None)
            if child is None:
                stack.pop()
            else:
                stack.append(rule(child.val, rule_default)(run, child))
    # the walk resolves every pending operator down to the leaves, as
    # tree.nodes() would, and meets the leaves left to right: a root keeps
    # them as its leaves() (see BinaryDepTree.leaves); it drops the parent
    # links on the way
    leaves = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.mark is None:
            raise MarkError("polarization left a node unmarked")
        if node.left is None:
            leaves.append(node)
        else:
            if node.pending is not None:
                push(node)
            node.left.parent = node.right.parent = None
            stack += (node.right, node.left)
    if tree.parent is None:
        tree._leaves = tuple(leaves)
    return tree


def project_to_tokens(tree, graph):
    """Read the per-token marks off a fully marked tree.

    Punctuation tokens are carried with a None mark (unscored); every other
    token must be marked.
    """
    marks = [None] * (len(graph.tokens) + 1)  # id -> mark (ids run 1..n)
    for leaf in tree.leaves():
        tok = leaf.val
        if tok.upos == "PUNCT" or tok.deprel == "punct":  # tok.is_punct, without its call
            continue
        if leaf.mark is None:
            raise MarkError(f"token {tok.id} ({tok.form!r}) has no mark")
        marks[tok.id] = leaf.mark
    pairs = [(tok, marks[tok.id]) for tok in graph.tokens]
    return AnnotatedSentence(tokens=pairs, tree=tree)
