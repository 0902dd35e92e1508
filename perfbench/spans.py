"""In-memory spans around the package's public calls, for the traced run.

`instrument(tracer)` replaces each spanned function, at the module
attribute its caller looks it up through, with a wrapper that records a
span, and puts the originals back on exit. The package itself is not
changed on disk. A span is the list

    [name, start, end, parent, trace_id, failed, nodes]

with times from `time.perf_counter`, `parent` the index of the enclosing
span (-1 for none), `trace_id` shared by all spans of one request (one CLI
invocation, or one sentence of a library pass), `failed` set when the call
raised, and `nodes` the number of tree nodes in a polarity operator's
scope (0 for other spans).
"""

import math
import statistics
import sys
import time
from collections import namedtuple
from contextlib import contextmanager

POLARITY_OPERATORS = (
    "negate_subtree",
    "equalize_subtree",
    "topdown_negation",
    "topdown_equalization",
)
_TOPDOWN = {"topdown_negation", "topdown_equalization"}


def subtree_sizes(tree):
    """id(node) -> number of nodes in its subtree, without recursion."""
    order = []
    stack = [tree]
    while stack:
        node = stack.pop()
        order.append(node)
        if node.left is not None:
            stack.append(node.left)
            stack.append(node.right)
    sizes = {}
    for node in reversed(order):
        size = 1
        if node.left is not None:
            size += sizes[id(node.left)] + sizes[id(node.right)]
        sizes[id(node)] = size
    return sizes


class Tracer:
    def __init__(self):
        self.spans = []
        self.trace_id = None
        self._stack = []
        self._sizes = {}

    def wrap(self, name, fn, nodes=None):
        """`fn` recording one span per call; `nodes(args)` counts scope."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.trace_id,
                    False, nodes(args) if nodes else 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def wrap_polarize(self, fn):
        """The polarize stage; notes subtree sizes before its span opens so
        that operator spans can count their scope in O(1). The count is the
        tracer's own work: its `trace.sizes` span enters no layer figure."""
        traced = self.wrap("polarize", fn)
        sizes = self.wrap("trace.sizes", subtree_sizes)

        def polarize(tree, *args, **kwargs):
            self._sizes = sizes(tree)
            return traced(tree, *args, **kwargs)

        return polarize

    def wrap_operator(self, name, fn):
        def scope(args):
            node = args[0]
            if name in _TOPDOWN:
                if node.parent is None:
                    return 0
                return self._sizes[id(node.parent)] - self._sizes[id(node)]
            return self._sizes[id(node)]

        return self.wrap(f"polarity.{name}", fn, scope)


# the library path for one sentence, stage by stage
Stages = namedtuple("Stages", "parse binarize polarize project render")


@contextmanager
def instrument(tracer):
    """Span every public call the CLI and the polarizer make; yields the
    traced Stages of the library path."""
    cli = sys.modules["udpolarity.cli"]
    evaluation = sys.modules["udpolarity.evaluation"]
    # `import udpolarity.polarize` would bind the re-exported function
    polarize_mod = sys.modules["udpolarity.polarize"]
    hierarchy_cls = cli.RelationHierarchy
    default = hierarchy_cls.__dict__["default"]
    patches = [
        (cli, "parse_conllu", tracer.wrap("conllu.parse", cli.parse_conllu)),
        (cli, "binarize", tracer.wrap("binarize", cli.binarize)),
        (cli, "polarize", tracer.wrap_polarize(cli.polarize)),
        (cli, "project_to_tokens", tracer.wrap("polarize.project", cli.project_to_tokens)),
        (cli, "render", tracer.wrap("render", cli.render)),
        (cli, "load_lexicon", tracer.wrap("lexicon.load", cli.load_lexicon)),
        (hierarchy_cls, "default",
         classmethod(tracer.wrap("binarize.hierarchy_load", default.__func__))),
    ]
    for name in ("load_gold", "align", "evaluate"):
        patches.append(
            (evaluation, name, tracer.wrap(f"evaluation.{name}", getattr(evaluation, name)))
        )
    for name in POLARITY_OPERATORS:
        patches.append(
            (polarize_mod, name, tracer.wrap_operator(name, getattr(polarize_mod, name)))
        )
    originals = [(obj, name, obj.__dict__[name]) for obj, name, _ in patches]
    try:
        for obj, name, wrapper in patches:
            setattr(obj, name, wrapper)
        yield Stages(
            cli.parse_conllu, cli.binarize, cli.polarize, cli.project_to_tokens, cli.render
        )
    finally:
        for obj, name, original in originals:
            setattr(obj, name, original)


def _duration(span):
    return span[2] - span[1]


LAYER_UNITS = {
    "conllu.parse_us_per_sent": "us",
    "conllu.skipped": "count",
    "binarize.us_per_sent": "us",
    "polarize.us_per_sent": "us",
    "polarity.calls_per_sent": "count",
    "polarity.nodes_rewritten_per_sent": "count",
    "polarity.us_per_sent": "us",
    "polarize.project_us_per_sent": "us",
    "render.us_per_sent": "us",
    "cli.self_us_per_sent": "us",
    "evaluation.us_per_sent": "us",
    "lexicon.load_ms": "ms",
    "binarize.hierarchy_load_ms": "ms",
}


def cli_layers(spans, trace_id, n_sentences):
    """Per-layer figures of the traced CLI invocations of one round, which
    together saw `n_sentences`; load times are per invocation."""
    per = 1e6 / n_sentences
    total = {}
    ops = []
    mains = set()
    for i, span in enumerate(spans):
        if span[4] != trace_id:
            continue
        total[span[0]] = total.get(span[0], 0.0) + _duration(span)
        if span[0].startswith("polarity."):
            ops.append(span)
        elif span[0] == "cli.main":
            mains.add(i)
    children = sum(_duration(s) for s in spans if s[3] in mains)
    return {
        "conllu.parse_us_per_sent": total.get("conllu.parse", 0.0) * per,
        "conllu.skipped": sum(
            s[5] for s in spans if s[4] == trace_id and s[0] == "conllu.parse"
        ),
        "binarize.us_per_sent": total.get("binarize", 0.0) * per,
        "polarize.us_per_sent": total.get("polarize", 0.0) * per,
        "polarity.calls_per_sent": len(ops) / n_sentences,
        "polarity.nodes_rewritten_per_sent": sum(s[6] for s in ops) / n_sentences,
        "polarity.us_per_sent": sum(_duration(s) for s in ops) * per,
        "polarize.project_us_per_sent": total.get("polarize.project", 0.0) * per,
        "render.us_per_sent": total.get("render", 0.0) * per,
        "cli.self_us_per_sent": (total["cli.main"] - children) * per,
        "evaluation.us_per_sent": sum(
            v for k, v in total.items() if k.startswith("evaluation.")
        ) * per,
        "lexicon.load_ms": total.get("lexicon.load", 0.0) * 1e3 / len(mains),
        "binarize.hierarchy_load_ms":
            total.get("binarize.hierarchy_load", 0.0) * 1e3 / len(mains),
    }


def polarize_times(spans):
    """trace_id -> polarize span durations, for library-pass spans."""
    out = {}
    for span in spans:
        if span[0] == "polarize":
            out.setdefault(span[4], []).append(_duration(span))
    return out


def loglog_slope(points):
    """Least-squares slope of log(y) against log(x)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx = statistics.fmean(xs)
    my = statistics.fmean(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den
