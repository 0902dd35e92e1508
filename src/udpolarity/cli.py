"""Command-line interface.

Subcommands:
  polarize  annotate CoNLL-U input with polarity marks
  eval      score annotated output against a gold file
  render    emit Graphviz DOT trees for the polarized parses

Input is CoNLL-U produced by any UD parser (e.g. a neural pipeline such as
Stanza trained on a UD treebank); this tool does not parse raw text itself.
`--jobs N` cuts the sentences into up to N contiguous runs and forks a
pinned worker for each run after the first (see `_forked`), so a threaded
host program should not call `main` with it.
Exit codes: 0 success, 1 usage or I/O or parse failure, or output that
could not be written (a closed pipe exits quietly), 2 gold alignment
failure; with stderr closed, its lines are dropped and the code stays.

Each sentence's tree is released once it is rendered (see `_annotate`),
so a run leaves the cyclic garbage collector none of its sentences to
free. `entry`, the process entry, freezes the heap once `main` returns,
so the collection at interpreter exit skips every object still alive;
`main` itself does not, since tests and host programs call it in-process.
"""

import argparse
import functools
import gc
import io
import os
import sys

from . import evaluation as ev
from .binarize import RelationHierarchy, binarize
from .conllu import ConlluError, parse_conllu, read_text, sentence_blocks
from .lexicon import LexiconError, load_lexicon
from .polarity import MarkError
from .polarize import polarize, project_to_tokens
from .render import render

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ALIGNMENT = 2


FAILURES = (ConlluError, MarkError)  # what `_annotate` returns for a failed sentence


def _annotate(hierarchy, lexicon, fmt, block):
    """One sentence block of `_annotate_inputs` through parse, binarize,
    polarize and project.

    Returns the sentence rendered in `fmt` (a DOT graph numbered 0), or
    its (Token, mark) pairs when `fmt` is None; None for a block with no
    tokens, the ConlluError of an invalid one and the MarkError of one the
    polarizer fails on. A worker process returns no tree: pickling one
    recurses as deep as the tree. The tree is released before returning.
    """
    where, line, ordinal, lines = block
    try:
        graphs = parse_conllu(lines, line, ordinal)
    except ConlluError as exc:
        return ConlluError(f"{where}{exc}")
    if not graphs:  # every token line is a multiword range or an empty node
        return None
    (graph,) = graphs
    tree = binarize(graph, hierarchy)
    try:
        polarize(tree, lexicon)
        annotated = project_to_tokens(tree, graph)
        return annotated.tokens if fmt is None else render(annotated, fmt)
    except MarkError as exc:
        return MarkError(f"{where}sentence {graph.sent_id}: {exc}")
    finally:
        tree.release()


def _say(err, line):
    """Print a diagnostic line to `err`; with stderr closed, drop it."""
    try:
        print(line, file=err)
    except OSError:
        pass


def _split(blocks, jobs):
    """Cut `blocks` into at most `jobs` contiguous runs of about equal line
    counts: a run ends where the next block's middle line lies past its
    share. Polarizing is linear in tokens, so lines measure the work."""
    total = sum(len(block[3]) for block in blocks)
    runs = [[]]
    lines = 0
    for block in blocks:
        size = len(block[3])
        if runs[-1] and (2 * lines + size) * jobs > 2 * total * len(runs):
            runs.append([])
        runs[-1].append(block)
        lines += size
    return runs


def _cpus():
    """The CPUs this process may run on, sorted, or None when there is
    only one or the platform cannot pin a process to one."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return None
    return cpus if len(cpus) > 1 else None


def _pin(cpus, k=None):
    """Pin this process to the k-th of `cpus` (modulo their number), or
    let it run on all of them again."""
    if cpus:
        try:
            os.sched_setaffinity(0, cpus if k is None else {cpus[k % len(cpus)]})
        except OSError:
            pass


def _named(block):
    where, line, ordinal, _lines = block
    return f"{where}sentence {ordinal} (line {line})"


def _forked(annotate, runs, lenient):
    """`annotate` over every block of `runs`, yielded in input order.

    This process annotates the first run itself; each other run goes to a
    child made with os.fork(), which returns its results pickled through a
    pipe and, unless `lenient`, stops at its run's first failure. Worker k
    (this process is worker 0) is pinned to the k-th CPU this process may
    use. Each pipe is read in turn and its child reaped once the pipe is
    drained. Closing the generator early, as a strict run does at its first
    failure, kills and reaps every child left. A child that exits nonzero
    or is killed is a ChildProcessError that names its run.
    """
    import pickle  # before forking, so that no child spends its run importing it

    cpus = _cpus()
    children = []  # (pid, read end of its pipe, its run), in input order
    try:
        for k, run in enumerate(runs[1:], 1):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child: never returns to the caller
                code = 1
                try:
                    os.close(read)
                    for _pid, other, _run in children:  # each pipe has one reader
                        os.close(other)
                    _pin(cpus, k)
                    results = []
                    for result in map(annotate, run):
                        results.append(result)
                        if not lenient and isinstance(result, FAILURES):
                            break
                    with open(write, "wb") as pipe:
                        pipe.write(pickle.dumps(results, pickle.HIGHEST_PROTOCOL))
                    code = 0
                finally:
                    os._exit(code)
            os.close(write)
            children.append((pid, read, run))
        _pin(cpus, 0)
        try:
            yield from map(annotate, runs[0])
        finally:
            _pin(cpus)
        while children:
            pid, read, run = children.pop(0)
            try:
                with open(read, "rb") as pipe:
                    data = pipe.read()
            finally:
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code:
                fault = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                raise ChildProcessError(
                    f"the worker on {_named(run[0])} to {_named(run[-1])} {fault}"
                )
            yield from pickle.loads(data)
    finally:
        if children:  # a failure before every pipe was read
            import signal
        for pid, read, _run in children:
            os.kill(pid, signal.SIGKILL)
            os.close(read)
            os.waitpid(pid, 0)


def _annotate_inputs(args, fmt, err):
    """Every sentence of the input files (stdin when there is none) through
    `_annotate`, in order, on up to `args.jobs` processes (see `_forked`;
    where os.fork is missing, in this process alone).

    Each file is split into sentences on its own, so lines and sentence
    positions in errors count within the file, which errors name when
    there are several. A sentence that fails stops the run with its
    ConlluError or MarkError or, with --lenient, is reported and skipped.
    """
    if not args.paths:  # the bytes of the process's stdin, or a text stream
        if sys.stdin is None:  # file descriptor 0 was closed before start-up
            raise OSError("<stdin> is closed")
        texts = [("<stdin>", read_text(getattr(sys.stdin, "buffer", sys.stdin), "<stdin>"))]
    else:
        texts = [(path, read_text(path)) for path in args.paths]
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
    runs = _split(blocks, args.jobs) if args.jobs > 1 and hasattr(os, "fork") else [blocks]
    results = _forked(annotate, runs, args.lenient) if len(runs) > 1 else map(annotate, blocks)
    sentences = []
    try:
        for result in results:
            if isinstance(result, FAILURES):
                if not args.lenient:
                    raise result
                _say(err, f"skipping sentence: {result}")
            elif result is not None:
                if fmt == "dot":  # number the graphs across files and skips
                    result = result.replace("sentence_0", f"sentence_{len(sentences)}", 1)
                sentences.append(result)
    finally:
        if len(runs) > 1:
            results.close()
    return sentences


def cmd_polarize(args, out, err):
    try:
        rendered = _annotate_inputs(args, args.format, err)
    except (OSError, ConlluError, MarkError, LexiconError, ValueError) as exc:
        _say(err, f"error: {exc}")
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
        _say(err, f"alignment error: {exc}")
        return EXIT_ALIGNMENT
    except (OSError, ConlluError, MarkError, LexiconError, ValueError) as exc:
        _say(err, f"error: {exc}")
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


def positive_int(text):
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


@functools.cache  # one parser a process: each one built is cyclic garbage
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
        p.add_argument("--jobs", type=positive_int, default=1, help="parallel sentence workers")

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
    p_render.set_defaults(func=cmd_polarize, format="dot")

    return parser


def main(argv=None, out=None, err=None):
    if out is None:  # the process's stdout writes UTF-8, as output files would
        out = sys.stdout
        if isinstance(out, io.TextIOWrapper):
            out.reconfigure(encoding="utf-8")
    # sys.stderr is None when fd 2 was closed before start-up; print() to None writes to stdout
    err = err if err is not None else sys.stderr or io.StringIO()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code else EXIT_OK
    if out is None:  # sys.stdout is None: file descriptor 1 was closed before start-up
        _say(err, "error: <stdout> is closed")
        return EXIT_ERROR
    try:
        code = args.func(args, out, err)
        out.flush()
    except OSError as exc:  # writing the output failed
        if not isinstance(exc, BrokenPipeError):  # a closed pipe is no error
            _say(err, f"error: {exc}")
        if out is sys.stdout:  # drop what is left, or the flush at exit fails
            os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())  # Python's SIGPIPE recipe
        return EXIT_ERROR
    return code


def entry():
    """`main()` as the process entry (`python -m udpolarity.cli` and the
    `udpolarity` script): its exit code, after gc.freeze()."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())
