"""Output formats for annotated sentences: inline marks, TSV, s-expressions
and Graphviz DOT trees."""

from .binarize import to_sexpression


def render_inline(annotated):
    """One line per sentence: each form with its mark appended; unscored
    tokens are printed bare."""
    return " ".join(
        tok.form if mark is None else tok.form + mark.pretty
        for tok, mark in annotated.tokens
    )


def render_tsv(annotated):
    """token-id, form, upos, mark rows; '_' marks an unscored token."""
    lines = []
    for tok, mark in annotated.tokens:
        lines.append(
            "\t".join([str(tok.id), tok.form, tok.upos, mark.ascii if mark else "_"])
        )
    return "\n".join(lines)


def render_sexpr(annotated):
    return to_sexpression(annotated.tree)


def _dot_escape(text):
    return text.replace("\\", "\\\\").replace('"', '\\"')


def render_dot(annotated, index=0):
    """One digraph per sentence: internal nodes carry relation + mark,
    leaves carry form + mark, left children drawn before right."""
    lines = [f"digraph sentence_{index} {{"]
    lines.append('  node [shape=box, fontname="Helvetica"];')
    lines.append("  ordering=out;")
    ids = {}  # id(node) -> DOT name, numbered in preorder
    # a (parent name, child) pair stands for the edge, written once the
    # child's whole subtree has been written
    stack = [annotated.tree]
    while stack:
        item = stack.pop()
        if type(item) is tuple:
            me, child = item
            lines.append(f"  {me} -> {ids[id(child)]};")
            continue
        me = ids[id(item)] = f"n{len(ids)}"
        mark = "" if item.mark is None else " " + item.mark.pretty
        if item.left is None:
            label = _dot_escape(item.val.form) + mark
            lines.append(f'  {me} [label="{label}", shape=plaintext];')
        else:
            label = _dot_escape(item.val) + mark
            lines.append(f'  {me} [label="{label}"];')
            stack += ((me, item.right), item.right, (me, item.left), item.left)
    lines.append("}")
    return "\n".join(lines)


RENDERERS = {
    "inline": render_inline,
    "tsv": render_tsv,
    "sexpr": render_sexpr,
    "dot": render_dot,
}


def render(annotated, fmt):
    try:
        renderer = RENDERERS[fmt]
    except KeyError:
        raise ValueError(f"unknown output format {fmt!r}") from None
    return renderer(annotated)
