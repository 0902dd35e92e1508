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

A rule is a generator: it yields each internal child to polarize, in its
own order, and resumes once that child's whole subtree is done. The
polarizer keeps the rules in progress on an explicit stack, so tree depth
is bounded by memory, not by the interpreter's recursion limit.

A determiner finds its quantifier phrase through _Phrases, built on the
sentence's first determiner: tokens by id (ids run 1..n; conllu refuses
any other) and a dependent of several words by its leaf run. The scans
of all of a sentence's determiners together take time linear in the
sentence, however they nest, except in a nest whose dependents are not
projective: a dependent whose ids span k words that start a phrase but
are not its own costs up to k steps to pass them.
"""

from collections import namedtuple

from .lexicon import NUM_WILDCARD, is_downward_operator, load_lexicon
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


class _Phrases:
    """What a sentence's determiners read their quantifier phrases from,
    built on the sentence's first determiner: its tokens in a list indexed
    by id, and what its scans found so far, so that together they take
    time linear in the sentence (but see the module's docstring). A
    dependent of several words is read by its leaf run: a subtree's leaves
    form one run of `size` leaves ending at its `head`, so a token is in
    the subtree iff its leaf position lies in that run.
    """

    def __init__(self, tree, lexicon):
        self.lexicon = lexicon
        self.leaves = tree.leaves()
        n = len(self.leaves)
        self.toks = toks = [None] * (n + 1)  # id -> token
        for leaf in self.leaves:
            i = leaf.val.id
            if not 0 < i <= n or toks[i] is not None:
                raise MarkError(f"token id {i}: the ids of a sentence must run 1..{n}")
            toks[i] = leaf.val
        self.matches = {}  # id -> [(length, profile)] of the phrases it starts, longest first
        self.floors = [0, 0] + [None] * (n - 1)  # see _floor()
        self.unsuppressed = list(range(n + 2))  # see suppress()
        self.at = self.live = None  # id -> leaf position, and see _anchors()

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
        toks = self.toks
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
        floor = self._floor(head)
        start = max(start, floor - self.lexicon.max_phrase_len + 1)
        # the candidates: every id from `start` to `first`, then the
        # dependent's ids after it (`start` may lie past `first`)
        if dep.left is None:
            anchors, inside = range(start, first + 1), {first}.__contains__
        else:
            at = self.at
            if at is None:
                self.at = at = [0] * len(toks)
                for p, leaf in enumerate(self.leaves):
                    at[leaf.val.id] = p
                self.live = list(range(len(toks) + 1))
            hi = at[dep.head.val.id]
            lo = hi - dep.size + 1
            anchors, inside = self._anchors(start, dep.max_id), lambda i: lo <= at[i] <= hi  # noqa: E731
        matches = self.matches
        for a in anchors:
            if a < start or a > first and not inside(a):
                continue
            found = matches.get(a)
            if found is None:
                found = matches[a] = self._matches(a)
            for length, profile in found:
                end = a + length - 1
                if end < floor:
                    break
                if end <= first or all(map(inside, range(max(a, first) + 1, end + 1))):
                    return profile, a, end if end >= head else head - 1
        return None

    def _matches(self, a):
        """(length, profile) of every span of consecutive ids starting at
        id `a` that has a profile, longest first."""
        toks, words = self.toks, self.lexicon.first_words
        tok = toks[a]
        longest = words.get(tok.form.lower(), 0)
        if tok.upos == "NUM" and NUM_WILDCARD in words:
            longest = max(longest, words[NUM_WILDCARD])
        if not longest:
            return []
        span = toks[a:a + longest]
        profile = self.lexicon.profile
        found = [(length, profile(span[:length])) for length in range(len(span), 0, -1)]
        return [match for match in found if match[1] is not None]

    def _floor(self, head):
        """The last id before `head` whose token may not stand between a
        phrase and its head, or 0. floors[i] is that id for i, once found;
        a walk down from `head` finds it for every id it passes."""
        floors, toks = self.floors, self.toks
        i = head
        while floors[i] is None:
            if toks[i - 1].upos in _GAP_STOP_UPOS:
                floors[i] = i - 1
                break
            i -= 1
        floors[i + 1:head + 1] = [floors[i]] * (head - i)
        return floors[head]

    def _anchors(self, start, top):
        """Every id from `start` to `top` that may start a phrase, in
        order. live[i] is i, or a later id when every id from i up to it
        (not included) is found to start no phrase."""
        live, matches, i = self.live, self.matches, start
        while i <= top:
            if live[i] == i:
                found = matches.get(i)
                if found is None:
                    found = matches[i] = self._matches(i)
                if found:
                    yield i
                    i += 1
                    continue
                live[i] = i + 1
            # jump to the end of a run of ids that start no phrase, and
            # point each id on the way there to it
            after = live[i]
            while live[after] != after:
                after = live[after]
            while i != after:
                live[i], i = after, live[i]

    def suppress(self, first, last, suppressed):
        """Add the ids from `first` to `last` to `suppressed`, each at most
        once a sentence: unsuppressed[i] is i when id i is not added yet,
        else a later id up to which (not included) every id is added."""
        skip, i, end = self.unsuppressed, first, last + 1
        while i < end:
            after = skip[i]
            if after == i:
                suppressed.add(i)
                after = i + 1
            # all of first..last is added by the time this call returns
            skip[i] = after if after > end else end
            i = after


def apply_word_rule(node, lexicon, suppressed=frozenset(), known=None):
    """Word-level rule hook for the dependent side of a relation node.

    Negation operators under an adverbial-modifier or case relation negate
    the sibling constituent; a conditional marker under `mark` negates the
    clause it introduces (the antecedent). Returns True when a rule fired.

    `known`, when given, maps dependents of more leaves than the longest
    negation phrase to (leaves counted, a leaf not in `suppressed`, or None
    when every leaf is). The walk adds `node` when it is one, and passes
    such a node without reading it again while that leaf stays out of
    `suppressed`; `suppressed` only grows, so an entry with None stays true.
    """
    parent = node.parent
    if parent is None or node is not parent.left:
        return False
    # Stop one leaf past the longest negation phrase, once a leaf is not
    # suppressed. Right children first reach a leaf without walking down a
    # dependent nested on the left.
    longest = lexicon.longest_negation
    tokens = []
    count = 0  # leaves read or passed
    loud = None  # a leaf not in suppressed
    stack = [node]
    while stack and (loud is None or count <= longest):
        item = stack.pop()
        if item.left is None:
            tokens.append(item.val)
            count += 1
            if loud is None and item.val.id not in suppressed:
                loud = item
            continue
        entry = known.get(item) if known else None
        if entry is not None and (entry[1] is None or entry[1].val.id not in suppressed):
            count += entry[0]
            if loud is None:
                loud = entry[1]
        else:
            stack += (item.left, item.right)
    if known is not None and count > longest:
        known[node] = (count, loud)
    if loud is None:
        return False
    label = parent.val
    if label in ADVERBIAL_RELATIONS and count <= longest:
        tokens.sort(key=lambda t: t.id)
        if lexicon.is_negation_phrase([t.form for t in tokens]):
            negate_subtree(parent.right)
            return True
    if label == "mark":
        head = node.head.val
        if lexicon.is_conditional(head.form) or lexicon.is_conditional(head.lemma):
            negate_subtree(parent.right)
            return True
    return False


class _Run:
    """One polarization pass over one tree (single-threaded per sentence)."""

    def __init__(self, lexicon):
        self.lexicon = lexicon
        self.tree = None
        self.phrases = None  # the sentence's _Phrases, once a determiner needs them
        self.suppressed = set()
        self.known = {}  # see apply_word_rule

    def polarize(self, tree):
        if tree.left is not None and tree.left.mark is not None:
            raise MarkError("the tree is polarized already")
        self.tree = tree
        if tree.mark is None:
            tree.mark = _UP
        if tree.left is not None:
            self.visit(tree)
        # the walk resolves every pending operator down to the leaves, as
        # tree.nodes() would
        stack = [tree]
        while stack:
            node = stack.pop()
            if node.mark is None:
                raise MarkError("polarization left a node unmarked")
            if node.left is not None:
                if node.pending is not None:
                    push(node)
                stack += (node.right, node.left)
        return tree

    def visit(self, node):
        """Run the rule of an internal node and, depth first, the rules of
        the nodes it yields, keeping the rules in progress on a stack. A
        rule yields no leaf: a leaf has no rule to run."""
        rule = RULES.get
        stack = [rule(node.val, rule_default)(self, node)]
        while stack:
            child = next(stack[-1], None)
            if child is None:
                stack.pop()
            else:
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
        verb = node.right.head.val
        if is_downward_operator(verb.lemma or verb.form, run.lexicon):
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

    The phrase comes from the sentence's _Phrases. The ids it covers are
    suppressed for the word rules of advmod/case/mark.
    """
    node.left.mark = node.mark
    outside = _UP  # the operator on the clause outside the phrase
    if run.phrases is None:
        run.phrases = _Phrases(run.tree, run.lexicon)
    found = run.phrases.scan(node)
    if found is not None:
        profile, first, last = found
        run.phrases.suppress(first, last, run.suppressed)
        node.right.mark = profile.first_arg
        outside = profile.second_arg
    elif node.val == "nummod" and node.left.head.val.upos == "NUM":
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
    """advmod/case: the dependent is polarized after the head material so a
    negation operator ("not", "without", "than") can negate its sibling;
    otherwise the forward reactions to the dependent's mark apply."""
    base = node.left.mark = node.right.mark = node.mark
    if node.right.left is not None:
        yield node.right
    if node.left.left is not None:
        yield node.left
    if apply_word_rule(node.left, run.lexicon, run.suppressed, run.known):
        return
    if node.left.mark is not base:
        _react(node.left, node.right)


def rule_mark(run, node):
    """Clause markers: "if" negates the antecedent clause it introduces."""
    node.left.mark = node.right.mark = node.mark
    if node.right.left is not None:
        yield node.right
    if node.left.left is not None:
        yield node.left
    apply_word_rule(node.left, run.lexicon, run.suppressed, run.known)


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
    with a determiner whose token ids do not run 1..n.
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
