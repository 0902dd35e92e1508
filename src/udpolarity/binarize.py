"""Binarization of dependency graphs into s-expression trees.

A dependency graph is rewritten into a binary tree whose internal nodes are
relation labels and whose leaves are the original tokens. At every step the
dependent's subtree goes on the left and the remaining head material on the
right, so modifiers always occupy left children and headwords sit on the
right spine. Which dependent is split off first is decided by the relation
hierarchy: the smaller a relation's level-id, the earlier it is composed and
the closer to the root it ends up.
"""

from importlib import resources

from .conllu import Token, graph_root
from .polarity import Polarity, push

DEFAULT_UNKNOWN_LEVEL = 45

_NOMINAL_UPOS = {"NOUN", "PROPN", "PRON"}


class RelationHierarchy:
    """Relation label -> level-id priority table."""

    def __init__(self, levels):
        self.levels = dict(levels)

    def level(self, label):
        return self.levels.get(label, DEFAULT_UNKNOWN_LEVEL)

    @classmethod
    def from_text(cls, text):
        levels = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"hierarchy line {lineno}: expected label<TAB>level")
            label, level = parts
            try:
                levels[label] = int(level)
            except ValueError:
                raise ValueError(
                    f"hierarchy line {lineno}: non-integer level {level!r}"
                ) from None
        return cls(levels)

    @classmethod
    def from_file(cls, path):
        with open(path, encoding="utf-8") as f:
            return cls.from_text(f.read())

    @classmethod
    def default(cls):
        text = resources.files("udpolarity.data").joinpath("hierarchy.tsv").read_text("utf-8")
        return cls.from_text(text)


class BinaryDepTree:
    """Node of a binarized parse: relation label inside, token at a leaf.

    `mark` holds the polarity and `pending` the polarity operator still
    to be applied to the node's descendants (see polarity.py); they are the
    only slots mutated after construction, everything else is fixed when
    the tree is built. `min_id` is the smallest token id in the subtree.
    """

    __slots__ = ("val", "left", "right", "mark", "pending", "parent", "min_id", "_leaves")

    def __init__(self, val, left=None, right=None):
        self.val = val
        self.left = left
        self.right = right
        self.mark = None
        self.pending = None
        self.parent = None
        self._leaves = None
        if left is None and right is None:
            self.min_id = val.id if isinstance(val, Token) else 0
        else:
            left.parent = self
            right.parent = self
            self.min_id = left.min_id if left.min_id < right.min_id else right.min_id

    @property
    def is_leaf(self):
        return self.left is None and self.right is None

    def leaves(self):
        """The leaves left to right, as a tuple.

        A root keeps its tuple, so the stages after binarization share one
        walk; a subtree walks again on every call, which keeps memory
        linear in the sentence. Leaf marks are final once `nodes()` has
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

    def head_leaf(self):
        """The lexical head: follow the right spine down to its leaf."""
        node = self
        while not node.is_leaf:
            node = node.right
        return node

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
    relations = graph.relations
    dep_rels = relations.get(dependent.id, frozenset())
    if "nsubj" in dep_rels and "nsubj" in relations[head.id]:
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


def sort_children(children, hierarchy):
    """Order (relation, token) pairs by level-id, ties by token id."""
    level = hierarchy.levels.get
    return sorted(children, key=lambda rt: (level(rt[0], DEFAULT_UNKNOWN_LEVEL), rt[1].id))


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
    children = graph._children
    # breadth first over the dependency tree (the loop also visits the
    # tokens appended during it); composing in reverse order builds every
    # dependent's subtree before its head's spine needs it
    tokens = [root]
    for token in tokens:
        tokens += children.get(token.id, ())
    built = {}
    for token in reversed(tokens):
        deps = []
        for child in children.get(token.id, ()):
            label = refine_relation(child.deprel, token, child, graph)
            if label in ("advcl", "advmod") and token is root and built[child.id].min_id == 1:
                label += "-sent"
            deps.append((label, child))
        node = BinaryDepTree(token)
        for label, child in reversed(sort_children(deps, hierarchy)):
            node = BinaryDepTree(label, built.pop(child.id), node)
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
