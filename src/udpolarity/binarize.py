"""Binarization of dependency graphs into s-expression trees.

A dependency graph is rewritten into a binary tree whose internal nodes are
relation labels and whose leaves are the original tokens. At every step the
dependent's subtree goes on the left and the remaining head material on the
right, so modifiers always occupy left children and headwords sit on the
right spine. Which dependent is split off first is decided by the relation
hierarchy: the smaller a relation's level-id, the earlier it is composed and
the closer to the root it ends up.
"""

from .conllu import graph_root
from .lexicon import bundled_rows, read_rows
from .polarity import Polarity, push

DEFAULT_UNKNOWN_LEVEL = 45

_NOMINAL_UPOS = {"NOUN", "PROPN", "PRON"}


class RelationHierarchy:
    """Relation label -> level-id priority table."""

    def __init__(self, levels):
        self.levels = dict(levels)

    @classmethod
    def from_file(cls, path):
        return cls(_levels(read_rows(path)))

    @classmethod
    def default(cls):
        return cls(_levels(bundled_rows("hierarchy.tsv")))


def _levels(rows):
    """label -> level of the rows of a hierarchy table."""
    levels = {}
    for name, lineno, line in rows:
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0]:
            raise ValueError(f"{name} line {lineno}: expected label<TAB>level")
        label, level = parts
        try:
            levels[label] = int(level)
        except ValueError:
            raise ValueError(
                f"{name} line {lineno}: non-integer level {level!r}"
            ) from None
    return levels


class BinaryDepTree:
    """Node of a binarized parse: relation label inside, token at a leaf.

    `mark` holds the polarity and `pending` the polarity operator still
    to be applied to the node's descendants (see polarity.py); they are the
    only slots mutated after construction, everything else is fixed when
    the tree is built. `min_id` and `max_id` are the smallest and largest
    token ids in the subtree, `size` its leaf count and `head` its head
    leaf, which is its last leaf: heads sit on the right spine.

    The back links (each child's `parent`, each leaf's `head`, which is
    the leaf itself, and the root's `_leaves`) make a built tree a
    reference cycle, which only the cyclic garbage collector frees;
    `release()` on the root drops them once the tree is done with.
    """

    __slots__ = ("val", "left", "right", "mark", "pending", "parent",
                 "min_id", "max_id", "size", "head", "_leaves")

    def __init__(self, val, left=None, right=None):
        self.val = val
        self.left = left
        self.right = right
        self.mark = None
        self.pending = None
        self.parent = None
        self._leaves = None
        if left is None:  # a leaf: val is a Token
            self.min_id = self.max_id = val.id
            self.size, self.head = 1, self
        else:
            left.parent = self
            right.parent = self
            self.min_id = left.min_id if left.min_id < right.min_id else right.min_id
            self.max_id = left.max_id if left.max_id > right.max_id else right.max_id
            self.size, self.head = left.size + right.size, right.head

    @property
    def is_leaf(self):
        return self.left is None and self.right is None

    def leaves(self):
        """The leaves left to right, as a tuple.

        A root keeps its tuple, so the stages after binarization share one
        walk (polarize() leaves it filled from its own final walk); a
        subtree walks again on every call, which keeps memory linear in
        the sentence. Leaf marks are final once `nodes()` has
        walked the tree, as polarize() does.
        """
        if self._leaves is not None:
            return self._leaves
        out = []
        stack = [self]
        while stack:
            node = stack.pop()
            if node.left is None:
                out.append(node)
            else:
                stack.append(node.right)
                stack.append(node.left)
        out = tuple(out)
        if self.parent is None:
            self._leaves = out
        return out

    def nodes(self):
        """Every node of the subtree in preorder (node, left, right).

        The pending operators of the node's ancestors, and of each node
        before it is yielded, are pushed down first, so the marks read are
        those an eager rewrite of every subtree would give.
        """
        path = []
        node = self.parent
        while node is not None:
            path.append(node)
            node = node.parent
        for node in reversed(path):
            if node.pending is not None:
                push(node)
        stack = [self]
        while stack:
            node = stack.pop()
            if node.left is not None:
                if node.pending is not None:
                    push(node)
                stack.append(node.right)
                stack.append(node.left)
            yield node

    def release(self):
        """Drop the back links of this root's tree, so that reference
        counting frees it as soon as it is unreferenced. Call it when no
        stage reads the tree any more: parents, head leaves and the
        leaves tuple are gone afterwards."""
        self._leaves = None
        stack = [self]
        while stack:
            node = stack.pop()
            node.parent = None
            if node.left is None:
                node.head = None
            else:
                stack.append(node.left)
                stack.append(node.right)

    def __repr__(self):
        if self.is_leaf:
            return f"<leaf {self.val.form!r}>"
        return f"<{self.val} ...>"


def refine_relation(deprel, head, dependent, graph):
    """Split `conj` into conj-sent/-vp/-np/-n/-adj/-vb by conjunct shape.

    Non-conj labels pass through untouched.
    """
    if deprel != "conj":
        return deprel
    # each token is one relation's dependent, so these sets cost linear time
    # in all; a head's set, read once per conjunct, is the graph's, built once
    dep_rels = {t.deprel for t in graph._children.get(dependent.id, ())}
    if "nsubj" in dep_rels and "nsubj" in graph.relations[head.id]:
        return "conj-sent"
    if dep_rels & {"obj", "xcomp", "ccomp"}:
        return "conj-vp"
    if dependent.upos == "VERB":
        return "conj-vb"
    if dependent.upos in _NOMINAL_UPOS:
        return "conj-n"
    if dependent.upos == "ADJ":
        return "conj-adj"
    return "conj-np"


def _rank(level, label, token):
    """The (level-id, token id, label) key that orders a head's dependents,
    `level` being a hierarchy's `levels.get`. A sentence's ids are unique,
    so binarize sorts these tuples in C and never compares the label."""
    return level(label, DEFAULT_UNKNOWN_LEVEL), token.id, label


def sort_children(children, hierarchy):
    """Order (relation, token) pairs by level-id, ties by token id."""
    level = hierarchy.levels.get
    return sorted(children, key=lambda pair: _rank(level, *pair)[:2])


def binarize(graph, hierarchy=None):
    """Compose a DependencyGraph into a BinaryDepTree.

    For each head, dependents are sorted by hierarchy priority; the
    highest-priority dependent is split off as the left child and the head
    with its remaining dependents is composed as the right child. An
    advcl/advmod of the root whose subtree holds the first token takes its
    sentence-level label (advcl-sent/advmod-sent).
    """
    if hierarchy is None:
        hierarchy = RelationHierarchy.default()
    root = graph_root(graph)
    children, level = graph._children, hierarchy.levels.get
    # composing the breadth-first order backwards builds every dependent's
    # subtree before its head's spine needs it
    built = {}
    for token in reversed(graph.order):
        node = BinaryDepTree(token)
        kids = children.get(token.id)
        if kids is not None:
            deps = []
            for child in kids:
                label = child.deprel
                if label == "conj":
                    label = refine_relation(label, token, child, graph)
                elif (token is root and label in ("advcl", "advmod")
                      and built[child.id].min_id == 1):
                    label += "-sent"
                deps.append(_rank(level, label, child))
            if len(deps) == 1:  # the loop's label and child
                node = BinaryDepTree(label, built.pop(child.id), node)
            else:
                deps.sort()
                for _level, cid, label in reversed(deps):
                    node = BinaryDepTree(label, built.pop(cid), node)
        built[token.id] = node
    return built[root.id]


# 'v' is a letter, so a space sets it off from the word it marks
# ("dogs v", not "dogsv"); '^' and '=' follow the word directly
_SUFFIX = {None: "", **{m: m.ascii for m in Polarity}, Polarity.DOWN: " " + Polarity.DOWN.ascii}


def to_sexpression(tree):
    """Render a tree as parenthesized text, children in sentence order.

    Marks, when present, are appended to every item: '^' for monotone,
    ' v' for antitone, '=' for no-information.
    """
    parts = []
    stack = [tree]
    while stack:
        item = stack.pop()
        if type(item) is str:
            parts.append(item)
        elif item.left is None:
            parts.append(item.val.form + _SUFFIX[item.mark])
        else:
            first, second = item.left, item.right
            if second.min_id < first.min_id:
                first, second = second, first
            parts.append("(" + item.val + _SUFFIX[item.mark] + " ")
            stack += (")", second, " ", first)
    return "".join(parts)
