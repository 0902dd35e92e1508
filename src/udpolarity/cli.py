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


def _read_inputs(paths):
    """(path, text) of each input file, or of stdin when there is none."""
    if not paths:
        return [("<stdin>", sys.stdin.read())]
    inputs = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            inputs.append((path, f.read()))
    return inputs


_WORKER_STATE = {}


def _worker_init(hierarchy_path, lexicon_paths):
    hierarchy = (
        RelationHierarchy.from_file(hierarchy_path)
        if hierarchy_path
        else RelationHierarchy.default()
    )
    lexicon = load_lexicon(quantifier_paths=lexicon_paths)
    _WORKER_STATE["hierarchy"] = hierarchy
    _WORKER_STATE["lexicon"] = lexicon


def _annotate_one(args):
    index, graph, fmt = args
    hierarchy = _WORKER_STATE["hierarchy"]
    lexicon = _WORKER_STATE["lexicon"]
    tree = binarize(graph, hierarchy)
    polarize(tree, lexicon)
    annotated = project_to_tokens(tree, graph)
    return render(annotated, fmt, index)


def _annotate_all(graphs, fmt, hierarchy_path, lexicon_paths, jobs):
    tasks = [(i, g, fmt) for i, g in enumerate(graphs)]
    if jobs <= 1 or len(tasks) <= 1:
        _worker_init(hierarchy_path, lexicon_paths)
        return [_annotate_one(t) for t in tasks]
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=jobs,
        initializer=_worker_init,
        initargs=(hierarchy_path, lexicon_paths),
    ) as pool:
        return list(pool.map(_annotate_one, tasks))


def _parse_input(paths, lenient, err):
    """Parse the CoNLL-U inputs, optionally skipping invalid sentences.

    Each file is split into sentences on its own, so lines and sentence
    positions in errors count within the file, which errors name when
    there are several.
    """
    inputs = _read_inputs(paths)
    graphs = []
    for path, text in inputs:
        where = f"{path}: " if len(inputs) > 1 else ""
        if not lenient:
            try:
                graphs += parse_conllu(text)
            except ConlluError as exc:
                raise ConlluError(f"{where}{exc}") from None
            continue
        for line, ordinal, lines in sentence_blocks(text):
            try:
                graphs += parse_conllu("\n".join(lines), line, ordinal)
            except ConlluError as exc:
                print(f"skipping sentence: {where}{exc}", file=err)
    return graphs


def cmd_polarize(args, out, err):
    try:
        graphs = _parse_input(args.paths, args.lenient, err)
        rendered = _annotate_all(
            graphs, args.format, args.hierarchy, tuple(args.lexicon), args.jobs
        )
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
        graphs = _parse_input(args.paths, args.lenient, err)
        gold = ev.load_gold(args.gold)
        _worker_init(args.hierarchy, tuple(args.lexicon))
        annotated = []
        for graph in graphs:
            tree = binarize(graph, _WORKER_STATE["hierarchy"])
            polarize(tree, _WORKER_STATE["lexicon"])
            annotated.append(project_to_tokens(tree, graph))
        pairs = ev.align(annotated, gold)
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
