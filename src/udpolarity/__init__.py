"""Monotonicity polarity annotation over Universal Dependency parses.

The pipeline has three stages: an external UD parser produces CoNLL-U, the
binarizer rewrites each dependency tree into a binary s-expression tree
ordered by a relation hierarchy, and the polarizer marks every node as
monotone, antitone or no-information by composing relation-level and
word-level rules. An evaluation harness scores annotations against gold
data at the token and sentence level.
"""

from .binarize import (
    BinaryDepTree,
    RelationHierarchy,
    binarize,
    refine_relation,
    sort_children,
    to_sexpression,
)
from .conllu import (
    ConlluError,
    DependencyGraph,
    Token,
    ValidationError,
    children_of,
    graph_root,
    parse_conllu,
    serialize_conllu,
)
from .evaluation import (
    AlignmentError,
    EvalReport,
    GoldSentence,
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
from .lexicon import (
    Lexicon,
    LexiconError,
    QuantifierProfile,
    is_downward_operator,
    load_lexicon,
)
from .polarity import (
    MarkError,
    Polarity,
    equalize_subtree,
    negate_subtree,
    topdown_equalization,
    topdown_negation,
)
from .polarize import (
    AnnotatedSentence,
    apply_word_rule,
    polarize,
    project_to_tokens,
)
from .render import render, render_dot, render_inline, render_sexpr, render_tsv

__version__ = "0.1.0"

__all__ = [
    "AlignmentError",
    "AnnotatedSentence",
    "BinaryDepTree",
    "ConlluError",
    "DependencyGraph",
    "EvalReport",
    "GoldSentence",
    "Lexicon",
    "LexiconError",
    "MarkError",
    "Polarity",
    "QuantifierProfile",
    "RelationHierarchy",
    "Token",
    "ValidationError",
    "align",
    "apply_word_rule",
    "binarize",
    "children_of",
    "equalize_subtree",
    "evaluate",
    "graph_root",
    "is_downward_operator",
    "is_key_token",
    "load_gold",
    "load_lexicon",
    "negate_subtree",
    "parse_conllu",
    "polarize",
    "prf_per_label",
    "project_to_tokens",
    "refine_relation",
    "render",
    "render_dot",
    "render_inline",
    "render_report",
    "render_report_kv",
    "render_sexpr",
    "render_tsv",
    "sentence_accuracy",
    "serialize_conllu",
    "sort_children",
    "to_sexpression",
    "token_accuracy",
    "topdown_equalization",
    "topdown_negation",
]
