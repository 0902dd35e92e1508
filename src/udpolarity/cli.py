"""Command-line interface.

Subcommands:
  polarize  annotate CoNLL-U input with polarity marks
  eval      score annotated output against a gold file
  render    emit Graphviz DOT trees for the polarized parses

Input is CoNLL-U produced by any UD parser (e.g. a neural pipeline such as
Stanza trained on a UD treebank); this tool does not parse raw text itself.
Exit codes: 0 success, 1 usage or I/O or parse failure, 2 gold alignment
failure.
"""

import argparse
import concurrent.futures
import functools
import sys

from . import evaluation as ev
from .binarize import RelationHierarchy, binarize
from .conllu import ConlluError, parse_conllu, sentence_blocks
from .lexicon import LexiconError, load_lexicon
from .polarize import polarize, project_to_tokens
from .render import render

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ALIGNMENT = 2


# --jobs N hands each worker about this many chunks of sentences, so that
# a long sentence holds up only the chunk it is in
CHUNKS_PER_JOB = 4


def _annotate(hierarchy, lexicon, fmt, block):
    """One sentence block of `_annotate_inputs` through parse, binarize,
    polarize and project.

    Returns the sentence rendered in `fmt` (a DOT graph numbered 0), or
    its (Token, mark) pairs when `fmt` is None; None for a block with no
    tokens and the ConlluError of an invalid one. A worker process returns
    no tree: pickling one recurses as deep as the tree.
    """
    where, line, ordinal, lines = block
    try:
        graphs = parse_conllu("\n".join(lines), line, ordinal)
    except ConlluError as exc:
        return ConlluError(f"{where}{exc}")
    if not graphs:  # every token line is a multiword range or an empty node
        return None
    (graph,) = graphs
    tree = binarize(graph, hierarchy)
    polarize(tree, lexicon)
    annotated = project_to_tokens(tree, graph)
    return annotated.tokens if fmt is None else render(annotated, fmt)


def _annotate_inputs(args, fmt, err):
    """Every sentence of the input files (stdin when there is none) through
    `_annotate`, in order, on `args.jobs` processes.

    Each file is split into sentences on its own, so lines and sentence
    positions in errors count within the file, which errors name when
    there are several. An invalid sentence stops the run with its
    ConlluError or, with --lenient, is reported and skipped.
    """
    if not args.paths:
        texts = [("<stdin>", sys.stdin.read())]
    else:
        texts = []
        for path in args.paths:
            with open(path, encoding="utf-8") as f:
                texts.append((path, f.read()))
    blocks = [
        (f"{path}: " if len(texts) > 1 else "", *block)
        for path, text in texts
        for block in sentence_blocks(text)
    ]
    hierarchy = (
        RelationHierarchy.from_file(args.hierarchy)
        if args.hierarchy
        else RelationHierarchy.default()
    )
    lexicon = load_lexicon(quantifier_paths=args.lexicon)
    annotate = functools.partial(_annotate, hierarchy, lexicon, fmt)
    pool = None
    if args.jobs > 1 and len(blocks) > 1:
        pool = concurrent.futures.ProcessPoolExecutor(args.jobs)
        chunksize = -(-len(blocks) // (args.jobs * CHUNKS_PER_JOB))
        results = pool.map(annotate, blocks, chunksize=chunksize)
    else:
        results = map(annotate, blocks)
    sentences = []
    try:
        for result in results:
            if isinstance(result, ConlluError):
                if not args.lenient:
                    raise result
                print(f"skipping sentence: {result}", file=err)
            elif result is not None:
                if fmt == "dot":  # number the graphs across files and skips
                    result = result.replace("sentence_0", f"sentence_{len(sentences)}", 1)
                sentences.append(result)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return sentences


def cmd_polarize(args, out, err):
    try:
        rendered = _annotate_inputs(args, args.format, err)
    except (OSError, ConlluError, LexiconError, ValueError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_ERROR
    for block in rendered:
        print(block, file=out)
        if args.format in ("tsv", "dot"):
            print(file=out)
    return EXIT_OK


def cmd_eval(args, out, err):
    try:
        predicted = _annotate_inputs(args, None, err)
        gold = ev.load_gold(args.gold)
        pairs = ev.align(predicted, gold)
    except ev.AlignmentError as exc:
        print(f"alignment error: {exc}", file=err)
        return EXIT_ALIGNMENT
    except (OSError, ConlluError, LexiconError, ValueError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_ERROR
    if args.key_only:
        pairs = [
            [t for t in sent if ev.is_key_token(t.upos)] for sent in pairs
        ]
    report = ev.evaluate(pairs)
    print(ev.render_report(report), file=out)
    print(file=out)
    print(ev.render_report_kv(report), file=out)
    return EXIT_OK


def cmd_render(args, out, err):
    args.format = "dot"
    return cmd_polarize(args, out, err)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="udpolarity",
        description="Annotate words with monotonicity polarity over UD parses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("paths", nargs="*", help="CoNLL-U files (default: stdin)")
        p.add_argument(
            "--lexicon",
            action="append",
            default=[],
            metavar="PATH",
            help="extra quantifier table (repeatable; overrides defaults)",
        )
        p.add_argument("--hierarchy", metavar="PATH", help="relation hierarchy table")
        p.add_argument(
            "--lenient",
            action="store_true",
            help="report invalid sentences and continue instead of failing",
        )
        p.add_argument("--jobs", type=int, default=1, help="parallel sentence workers")

    p_pol = sub.add_parser("polarize", help="annotate CoNLL-U input")
    common(p_pol)
    p_pol.add_argument(
        "--format",
        choices=["inline", "tsv", "sexpr", "dot"],
        default="inline",
        help="output format",
    )
    p_pol.set_defaults(func=cmd_polarize)

    p_eval = sub.add_parser("eval", help="score output against a gold file")
    common(p_eval)
    p_eval.add_argument("--gold", required=True, metavar="PATH", help="gold annotation file")
    p_eval.add_argument(
        "--key-only",
        action="store_true",
        help="score key tokens only (content words, determiners, numbers)",
    )
    p_eval.set_defaults(func=cmd_eval)

    p_render = sub.add_parser("render", help="emit Graphviz DOT trees")
    common(p_render)
    p_render.set_defaults(func=cmd_render)

    return parser


def main(argv=None, out=None, err=None):
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code else EXIT_OK
    return args.func(args, out, err)


if __name__ == "__main__":
    sys.exit(main())
