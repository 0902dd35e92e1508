import gc
import io
import os
import pathlib
import random
import signal
import subprocess
import sys
import time
import types

import pytest

from udpolarity import (
    ConlluError,
    MarkError,
    binarize,
    parse_conllu,
    polarize,
    project_to_tokens,
    render_inline,
)
from udpolarity import cli
from udpolarity.cli import main

from .conftest import DATA, conllu_block, cyclic_garbage, workloads

FIG1 = conllu_block(
    [
        (1, "All", "all", "DET", 2, "det"),
        (2, "dogs", "dog", "NOUN", 3, "nsubj"),
        (3, "eat", "eat", "VERB", 0, "root"),
        (4, "food", "food", "NOUN", 3, "obj"),
    ],
    sent_id="fig1",
    text="All dogs eat food",
)


def run_cli(argv, stdin_text=None, monkeypatch=None):
    out, err = io.StringIO(), io.StringIO()
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_polarize_inline_figure_sentence(tmp_path):
    path = write(tmp_path, "fig1.conllu", FIG1)
    code, out, err = run_cli(["polarize", path])
    assert code == 0
    assert out == "All↑ dogs↓ eat↑ food↑\n"
    assert err == ""


def test_polarize_reads_stdin(tmp_path, monkeypatch):
    code, out, _ = run_cli(["polarize"], stdin_text=FIG1, monkeypatch=monkeypatch)
    assert code == 0
    assert out.strip() == "All↑ dogs↓ eat↑ food↑"


def test_polarize_empty_input(tmp_path):
    path = write(tmp_path, "empty.conllu", "")
    code, out, _ = run_cli(["polarize", path])
    assert code == 0
    assert out == ""


def test_form_with_line_separator(tmp_path):
    rows = [(1, "a\u2028b", "ab", "NOUN", 2, "nsubj"), (2, "ran", "run", "VERB", 0, "root")]
    path = write(tmp_path, "u2028.conllu", conllu_block(rows))
    code, out, err = run_cli(["polarize", path])
    assert (code, out, err) == (0, "a\u2028b↑ ran↑\n", "")


def test_polarize_malformed_fails_without_lenient(tmp_path):
    path = write(tmp_path, "bad.conllu", "1\tonly\tthree\n")
    code, _out, err = run_cli(["polarize", path])
    assert code == 1
    assert "error" in err


def test_polarize_lenient_skips_bad_sentence(tmp_path):
    text = "1\tonly\tthree\n\n" + FIG1
    path = write(tmp_path, "mixed.conllu", text)
    code, out, err = run_cli(["polarize", "--lenient", path])
    assert code == 0
    assert out.strip() == "All↑ dogs↓ eat↑ food↑"
    assert "skipping" in err


def test_polarize_missing_file_exits_1():
    code, _out, err = run_cli(["polarize", "/nonexistent/a.conllu"])
    assert code == 1
    assert "error" in err


def test_polarize_tsv_format(tmp_path):
    path = write(tmp_path, "fig1.conllu", FIG1)
    code, out, _ = run_cli(["polarize", "--format", "tsv", path])
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert lines[0] == "1\tAll\tDET\t^"
    assert lines[1] == "2\tdogs\tNOUN\tv"


def test_polarize_sexpr_format(tmp_path):
    path = write(tmp_path, "fig1.conllu", FIG1)
    code, out, _ = run_cli(["polarize", "--format", "sexpr", path])
    assert code == 0
    assert out.strip() == "(nsubj^ (det^ All^ dogs v) (obj^ eat^ food^))"


def test_render_dot_counts(tmp_path):
    path = write(tmp_path, "fig1.conllu", FIG1)
    code, out, _ = run_cli(["render", path])
    assert code == 0
    assert out.startswith("digraph sentence_0 {")
    assert out.count("shape=plaintext") == 4  # leaves
    boxes = out.count("[label=") - out.count("shape=plaintext")
    assert boxes == 3  # nsubj, det, obj
    assert out.count("->") == 6


def test_render_single_token(tmp_path):
    path = write(tmp_path, "one.conllu", "1\tRun\trun\tVERB\t_\t_\t0\troot\t_\t_\n")
    code, out, _ = run_cli(["render", path])
    assert code == 0
    assert out.count("[label=") == 1
    assert "->" not in out


def test_render_triple_negation_matches_polarized_fixture(tmp_path):
    rows = [
        (1, "No", "no", "DET", 2, "det"),
        (2, "student", "student", "NOUN", 3, "nsubj"),
        (3, "refused", "refuse", "VERB", 0, "root"),
        (4, "to", "to", "PART", 5, "mark"),
        (5, "dance", "dance", "VERB", 3, "xcomp"),
        (6, "without", "without", "ADP", 7, "case"),
        (7, "shoes", "shoe", "NOUN", 5, "obl"),
    ]
    path = write(tmp_path, "fig3.conllu", conllu_block(rows))
    code, out, _ = run_cli(["render", path])
    assert code == 0
    for label in ('"No ↑"', '"student ↓"', '"refused ↓"', '"shoes ↓"', '"dance ↑"'):
        assert label in out


def test_eval_mini_corpus(tmp_path):
    code, out, _ = run_cli(
        ["eval", str(DATA / "mini_corpus.conllu"), "--gold", str(DATA / "mini_gold.tsv")]
    )
    assert code == 0
    assert "acc(all-tokens)" in out
    assert "token_accuracy_all=" in out


def test_eval_perfect_gold(tmp_path):
    gold = "\n".join(
        ["fig1\tAll\tDET\t↑", "fig1\tdogs\tNOUN\t↓", "fig1\teat\tVERB\t↑", "fig1\tfood\tNOUN\t↑"]
    )
    conllu = write(tmp_path, "fig1.conllu", FIG1)
    gold_path = write(tmp_path, "gold.tsv", gold + "\n")
    code, out, _ = run_cli(["eval", conllu, "--gold", gold_path])
    assert code == 0
    assert "token_accuracy_all=100.000000" in out
    assert "sentence_accuracy_all=100.000000" in out


def test_eval_missing_gold_file(tmp_path):
    conllu = write(tmp_path, "fig1.conllu", FIG1)
    code, _out, err = run_cli(["eval", conllu, "--gold", str(tmp_path / "nope.tsv")])
    assert code == 1
    assert "error" in err


def test_eval_misaligned_exits_2(tmp_path):
    conllu = write(tmp_path, "fig1.conllu", FIG1)
    gold_path = write(tmp_path, "gold.tsv", "fig1\tAll\tDET\t↑\n")
    code, _out, err = run_cli(["eval", conllu, "--gold", gold_path])
    assert code == 2
    assert "alignment" in err


def test_eval_key_only_flag(tmp_path):
    conllu = write(tmp_path, "fig1.conllu", FIG1)
    gold = "\n".join(
        ["fig1\tAll\tDET\t↑", "fig1\tdogs\tNOUN\t↓", "fig1\teat\tVERB\t↑", "fig1\tfood\tNOUN\t↑"]
    )
    gold_path = write(tmp_path, "gold.tsv", gold + "\n")
    code, out, _ = run_cli(["eval", conllu, "--gold", gold_path, "--key-only"])
    assert code == 0
    assert "token_accuracy_all=100.000000" in out


def eval_at_any_jobs(argv):
    """`eval`'s (exit code, stdout, stderr) at --jobs 1, which --jobs 2 and
    --jobs 3 must repeat."""
    runs = [run_cli([*argv, "--jobs", jobs]) for jobs in ("1", "2", "3")]
    assert runs[1] == runs[0] and runs[2] == runs[0]
    return runs[0]


def test_eval_is_the_same_at_any_jobs(tmp_path):
    mini = (DATA / "mini_corpus.conllu").read_text("utf-8")
    mini_gold = (DATA / "mini_gold.tsv").read_text("utf-8")
    # the mini corpus replicated, with invalid blocks injected
    origins, blocks, gold_blocks = workloads.gold(1, mini, mini_gold)
    conllu = write(tmp_path, "gold.conllu", "\n".join(blocks))
    gold = write(tmp_path, "gold.tsv", "\n\n".join(g for g in gold_blocks if g) + "\n")
    for flags in ([], ["--key-only"]):
        code, out, err = eval_at_any_jobs(["eval", "--lenient", *flags, "--gold", gold, conllu])
        assert code == 0
        assert f"\nsentences={len(origins) - origins.count(None)}\n" in out
        skips = err.splitlines()
        assert len(skips) == origins.count(None) > 0
        assert all(line.startswith("skipping sentence: ") for line in skips)
    # a form mismatch in the last sentence, which the last run (a worker's) reads
    corpus = str(DATA / "mini_corpus.conllu")
    wrong = write(tmp_path, "wrong.tsv", mini_gold.replace("\tnews\tNOUN", "\tnewt\tNOUN"))
    assert eval_at_any_jobs(["eval", "--gold", wrong, corpus]) == (
        2, "", "alignment error: sentence s4-newspapers: token 8 form 'news' "
               "does not match gold 'newt'\n"
    )
    # a gold file one sentence short
    short = write(tmp_path, "short.tsv", mini_gold[: mini_gold.rindex("\n\ns4-newspapers")] + "\n")
    assert eval_at_any_jobs(["eval", "--gold", short, corpus]) == (
        2, "", "alignment error: 10 predicted sentences vs 9 gold sentences\n"
    )


def test_cli_matches_staged_pipeline(mini_corpus, tmp_path):
    code, out, _ = run_cli(["polarize", str(DATA / "mini_corpus.conllu")])
    assert code == 0
    staged = []
    for g in parse_conllu((DATA / "mini_corpus.conllu").read_text("utf-8")):
        tree = binarize(g)
        polarize(tree)
        staged.append(render_inline(project_to_tokens(tree, g)))
    assert out.splitlines() == staged


def test_jobs_parallel_output_identical(tmp_path):
    corpus = str(DATA / "mini_corpus.conllu")
    _c1, serial, _ = run_cli(["polarize", corpus, "--jobs", "1"])
    _c2, parallel, _ = run_cli(["polarize", corpus, "--jobs", "4"])
    assert serial == parallel


def test_custom_hierarchy_flag(tmp_path):
    # obj above nsubj reverses the composition order
    hier = write(tmp_path, "h.tsv", "nsubj\t60\nobj\t20\ndet\t55\n")
    conllu = write(tmp_path, "fig1.conllu", FIG1)
    code, out, _ = run_cli(["polarize", "--format", "sexpr", "--hierarchy", hier, conllu])
    assert code == 0
    assert out.strip().startswith("(obj")


def test_custom_lexicon_flag(tmp_path):
    quant = write(tmp_path, "q.tsv", "all\tflat\tflat\texact\n")
    conllu = write(tmp_path, "fig1.conllu", FIG1)
    code, out, _ = run_cli(["polarize", "--lexicon", quant, conllu])
    assert code == 0
    assert out.strip() == "All↑ dogs= eat= food="


def _rows_line(i, form, head, rel):
    return f"{i}\t{form}\t{form}\tX\t_\t_\t{head}\t{rel}\t_\t_"


def test_lenient_whitespace_separator_keeps_neighbours(tmp_path):
    valid = FIG1.replace("fig1", "a")
    invalid = "1\tonly\tthree\n"
    text = valid + "  \n" + invalid + " \t\n" + FIG1.replace("fig1", "c")
    path = write(tmp_path, "spaces.conllu", text)
    code, out, err = run_cli(["polarize", "--lenient", path])
    assert code == 0
    assert out.splitlines() == ["All↑ dogs↓ eat↑ food↑"] * 2
    assert err.splitlines() == ["skipping sentence: line 8: expected 10 columns, got 3"]


LOCATED_ERRORS = "\n".join(
    [
        _rows_line(1, "dogs", 2, "nsubj"),  # line 1
        _rows_line(2, "run", 0, "root"),
        "",
        "# sent_id = two",  # line 4
        _rows_line(1, "a", 0, "root"),
        _rows_line(2, "b", 3, "dep"),
        _rows_line(3, "c", 2, "dep"),
        "",
        _rows_line(1, "x", 0, "root"),  # line 9
        _rows_line(2, "y", "z", "dep"),
        "",
        _rows_line(1, "p", 0, "root"),  # line 12: the 4th sentence, no sent_id
        _rows_line(2, "q", 2, "dep"),
    ]
) + "\n"


def test_lenient_errors_name_absolute_line_and_sentence(tmp_path):
    path = write(tmp_path, "located.conllu", LOCATED_ERRORS)
    code, out, err = run_cli(["polarize", "--lenient", path])
    assert code == 0
    assert out.splitlines() == ["dogs↑ run↑"]
    assert err.splitlines() == [
        "skipping sentence: sentence two: cycle through token 2",
        "skipping sentence: line 10: non-integer head 'z'",
        "skipping sentence: sentence 4: token 2 is its own head",
    ]


def test_strict_errors_name_the_same_locations(tmp_path):
    # strict mode stops at the first invalid sentence, so mend the earlier
    # ones in place, keeping every line number and sentence position
    fixes = [
        (_rows_line(2, "b", 3, "dep"), _rows_line(2, "b", 1, "dep")),
        (_rows_line(2, "y", "z", "dep"), _rows_line(2, "y", 1, "dep")),
    ]
    text = LOCATED_ERRORS
    for step, expected in enumerate(("sentence two", "line 10", "sentence 4")):
        if step:
            text = text.replace(*fixes[step - 1])
        path = write(tmp_path, f"strict{step}.conllu", text)
        code, _out, err = run_cli(["polarize", path])
        assert code == 1
        assert err.startswith(f"error: {expected}:"), err


def test_files_are_split_into_sentences_on_their_own(tmp_path):
    # the first file ends without a newline; joined to the second, its last
    # sentence would run into the second file's first one
    first = write(tmp_path, "a.conllu", "\n".join(
        [_rows_line(1, "dogs", 2, "nsubj"), _rows_line(2, "run", 0, "root")]
    ))
    second = write(tmp_path, "b.conllu", "\n".join(
        [_rows_line(1, "cats", 2, "nsubj"), _rows_line(2, "sleep", 0, "root")]
    ) + "\n")
    code, out, err = run_cli(["polarize", first, second])
    assert code == 0, err
    assert out.splitlines() == ["dogs↑ run↑", "cats↑ sleep↑"]


def test_errors_name_the_file_and_its_own_line(tmp_path):
    first = write(tmp_path, "a.conllu", FIG1 + "\n" + FIG1.replace("fig1", "again"))
    second = write(tmp_path, "b.conllu", "\n".join(
        [_rows_line(1, "dogs", 2, "nsubj"), _rows_line(2, "run", "x", "root")]
    ) + "\n")
    code, _out, err = run_cli(["polarize", first, second])
    assert code == 1
    assert err == f"error: {second}: line 2: non-integer head 'x'\n"
    code, out, err = run_cli(["polarize", "--lenient", first, second])
    assert code == 0
    assert out.splitlines() == ["All↑ dogs↓ eat↑ food↑"] * 2
    assert err == f"skipping sentence: {second}: line 2: non-integer head 'x'\n"


def test_mark_errors_name_the_file_and_sentence(tmp_path, monkeypatch):
    def failing_polarize(tree, lexicon):
        if any(leaf.val.form == "poison" for leaf in tree.leaves()):
            raise MarkError("token 4 ('poison') has no mark")
        return polarize(tree, lexicon)

    monkeypatch.setattr(cli, "polarize", failing_polarize)
    first = write(tmp_path, "a.conllu", FIG1)
    bad = FIG1.replace("fig1", "bad").replace("food", "poison")
    second = write(tmp_path, "b.conllu", bad + "\n" + FIG1.replace("fig1", "after"))
    reason = f"{second}: sentence bad: token 4 ('poison') has no mark\n"
    assert run_cli(["polarize", first, second]) == (1, "", f"error: {reason}")
    code, out, err = run_cli(["polarize", "--lenient", first, second])
    assert code == 0
    assert out.splitlines() == ["All↑ dogs↓ eat↑ food↑"] * 2
    assert err == f"skipping sentence: {reason}"


def test_jobs_1_run_imports_no_dataclasses_or_process_pool():
    # each costs start-up time on every run; only a --jobs N run that forks
    # workers imports pickle
    script = (
        "import runpy, sys\n"
        "sys.argv = ['udpolarity', 'polarize', '--format', 'sexpr']\n"
        "try:\n"
        "    runpy.run_module('udpolarity.cli', run_name='__main__')\n"
        "finally:\n"
        "    print(*sorted(sys.modules))\n"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    for flags in ([], ["-S"]):
        child = subprocess.run(
            [sys.executable, *flags, "-c", script],
            input="",
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            check=True,
        )
        loaded = set(child.stdout.split())
        assert "udpolarity.polarize" in loaded
        assert not loaded & {"dataclasses", "concurrent.futures", "pickle"}
    # without site (python -S, the last run) nothing imports these before the
    # package does: its records are plain namedtuples and its tables are
    # read from the path next to it
    assert not loaded & {"typing", "importlib.resources", "pathlib", "tempfile", "zipfile"}


def test_all_names_every_public_attribute_of_the_package():
    # a name dropped from the package's imports but not from __all__, or
    # the other way round, fails here
    import udpolarity

    public = {name for name, value in vars(udpolarity).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(udpolarity.__all__) == sorted(public)


def test_jobs_2_matches_jobs_1_across_files_skips_and_deep_trees(tmp_path):
    chain = workloads.conllu_block("chain", workloads.deep_rows("neg", 3000, 0))
    first = write(tmp_path, "a.conllu", "\n".join([FIG1, LOCATED_ERRORS, chain]))
    second = write(tmp_path, "b.conllu", "\n".join(
        ["1\tonly\tthree\n", FIG1.replace("fig1", "b1"), LOCATED_ERRORS]
    ))
    runs = {}
    for jobs in ("1", "2"):
        runs[jobs] = run_cli(
            ["polarize", "--lenient", "--format", "dot", "--jobs", jobs, first, second]
        )
    assert runs["1"] == runs["2"]
    code, out, err = runs["1"]
    assert code == 0
    # 5 valid sentences, numbered on across the skips and into b.conllu
    assert [line for line in out.splitlines() if line.startswith("digraph")] == [
        f"digraph sentence_{i} {{" for i in range(5)
    ]
    assert len(err.splitlines()) == 7
    assert err.splitlines()[3] == f"skipping sentence: {second}: line 1: expected 10 columns, got 3"

    # a gold file of the right tokens, every mark UP
    _code, tsv, _err = run_cli(["polarize", "--lenient", "--format", "tsv", first, second])
    gold = "\n".join(
        "\t".join(["s", *row.split("\t")[1:3], "^"]) if row else ""
        for row in tsv.splitlines()
    )
    gold_path = write(tmp_path, "gold.tsv", gold + "\n")
    runs = {}
    for jobs in ("1", "2"):
        runs[jobs] = run_cli(
            ["eval", "--lenient", "--gold", gold_path, "--jobs", jobs, first, second]
        )
    assert runs["1"] == runs["2"]
    code, out, err = runs["1"]
    assert code == 0, err
    assert "sentences=5" in out
    assert len(err.splitlines()) == 7


def _in_children(monkeypatch, act):
    """Make every forked worker `act()` before it annotates its first
    sentence, and record the pids os.fork gives this process."""
    parent = os.getpid()
    annotate = cli._annotate
    fork = os.fork
    forked = []
    acted = []  # each process has its own copy

    def annotate_or_act(*args):
        if os.getpid() != parent and not acted:
            acted.append(act)
            act()
        return annotate(*args)

    def recorded_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(cli, "_annotate", annotate_or_act)
    monkeypatch.setattr(os, "fork", recorded_fork)
    return forked


@pytest.fixture
def deadline():
    """Fail a test that runs past 30 s, where it would hang."""
    def expire(signum, frame):
        raise TimeoutError("the test ran past its 30 s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def assert_reaped(pids):
    assert pids
    for pid in pids:
        with pytest.raises(ChildProcessError):  # no such child: reaped
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="--jobs N forks")
def test_strict_jobs_run_stops_at_its_first_failure(tmp_path, monkeypatch, deadline):
    blocks = [workloads.corpus_pool_block(i) for i in range(40)]
    path = write(tmp_path, "bad.conllu", "\n".join(["1\tonly\tthree\n", *blocks]))
    expected = run_cli(["polarize", "--jobs", "1", path])
    assert expected == (1, "", "error: line 1: expected 10 columns, got 3\n")
    forked = _in_children(monkeypatch, lambda: time.sleep(60))
    start = time.monotonic()
    assert run_cli(["polarize", "--jobs", "2", path]) == expected
    assert time.monotonic() - start < 10
    assert_reaped(forked)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="--jobs N forks")
def test_a_dead_worker_is_an_error_naming_its_run(tmp_path, monkeypatch, deadline):
    # ten sentences of 6 lines, 7 apart: the second run is sentences 6-10
    path = write(tmp_path, "ten.conllu", "\n".join(
        FIG1.replace("fig1", f"s{i}") for i in range(1, 11)
    ))
    run = "sentence 6 (line 36) to sentence 10 (line 64)"
    for act, fault in ((lambda: os._exit(3), "exited with status 3"),
                       (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9")):
        forked = _in_children(monkeypatch, act)
        for argv in (["polarize"], ["eval", "--gold", str(DATA / "mini_gold.tsv")]):
            code, out, err = run_cli([*argv, "--jobs", "2", path])
            assert (code, out, err) == (1, "", f"error: the worker on {run} {fault}\n")
        assert_reaped(forked)


def _property_input(rng, chain):
    """1-30 blocks of corpus sentences, some invalid, and at times one
    sentence far longer than the others."""
    invalid = ["1\tonly\tthree\n",
               "1\tdogs\tdog\tNOUN\t_\t_\tx\tnsubj\t_\t_\n",
               "1\tdogs\tdog\tNOUN\t_\t_\t2\tnsubj\t_\t_\n"
               "2\tbark\tbark\tVERB\t_\t_\t1\troot\t_\t_\n"]
    blocks = [workloads.corpus_pool_block(rng.randrange(workloads.CORPUS_POOL))
              for _ in range(rng.randint(1, 30))]
    for _ in range(rng.randint(0, 3)):
        blocks.insert(rng.randint(0, len(blocks)), rng.choice(invalid))
    if rng.random() < 0.3:
        blocks.insert(rng.randint(0, len(blocks)), chain)
    return "\n".join(blocks)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="--jobs N forks")
def test_jobs_property_output_equals_jobs_1(tmp_path):
    chain = workloads.conllu_block("chain", workloads.deep_rows("neg", 800, 0))
    rng = random.Random(12)
    inputs = ["\n".join([FIG1, chain])]  # each run holds one sentence
    inputs += [_property_input(rng, chain) for _ in range(10)]
    for k, text in enumerate(inputs):
        path = write(tmp_path, f"in{k}.conllu", text)
        code, tsv, _err = run_cli(["polarize", "--lenient", "--format", "tsv", path])
        assert code == 0
        gold = "\n".join(
            "\t".join(["s", *row.split("\t")[1:3], "^"]) if row else "" for row in tsv.splitlines()
        )
        gold_path = write(tmp_path, f"gold{k}.tsv", gold + "\n")
        commands = [["polarize", *mode, "--format", fmt, path]
                    for mode in ([], ["--lenient"]) for fmt in ("dot", "tsv")]
        commands.append(["eval", "--lenient", "--gold", gold_path, path])
        for argv in commands:
            expected = run_cli([*argv, "--jobs", "1"])
            for jobs in ("2", "3", "5"):
                assert run_cli([*argv, "--jobs", jobs]) == expected, (k, argv, jobs)


def _mutated(rng, blocks):
    """Blocks (lists of lines) with 1-4 random changes to their token
    lines: heads, ids (a token renumbered past n among them), deprels,
    dropped columns and duplicated lines. Some leave the sentence valid."""
    blocks = [block[:] for block in blocks]
    for _ in range(rng.randint(1, 4)):
        lines = rng.choice(blocks)
        rows = [k for k, line in enumerate(lines) if line[0] != "#" and line.count("\t") == 9]
        kind = rng.choice(["head", "id", "gap", "deprel", "column", "duplicate"]) if rows else "duplicate"
        if kind == "duplicate":
            k = rng.randrange(len(lines))
            lines.insert(k, lines[k])
            continue
        k = rng.choice(rows)
        cols = lines[k].split("\t")
        if kind == "head":
            cols[6] = rng.choice(["0", "x", "-1", str(rng.randint(1, len(rows) + 2))])
        elif kind == "id":
            cols[0] = rng.choice(["0", "a", f"{cols[0]}.1", f"{cols[0]}-{len(rows) + 1}",
                                  str(rng.randint(1, len(rows) + 2))])
        elif kind == "gap":  # renumber the token past n, its dependents' heads with it
            old, cols[0] = cols[0], str(len(rows) + rng.randint(1, 3))
            for j in rows:
                other = lines[j].split("\t")
                if other[6] == old:
                    other[6] = cols[0]
                    lines[j] = "\t".join(other)
        elif kind == "deprel":
            cols[7] = rng.choice(["_", "", "det", "nsubj", "advmod", "weird:rel"])
        else:
            del cols[rng.randrange(10)]
        lines[k] = "\t".join(cols)
    return blocks


def _valid(block, lexicon):
    """Whether the library annotates a block, alone, without a fault."""
    try:
        for graph in parse_conllu(block):
            tree = binarize(graph)
            project_to_tokens(polarize(tree, lexicon), graph)
    except (ConlluError, MarkError):
        return False
    return True


def test_lenient_output_is_strict_output_on_the_valid_blocks(tmp_path, lexicon):
    # --lenient drops exactly the invalid sentences: on mutated copies of
    # the mini corpus, its output is the strict output on the valid blocks
    mini = (DATA / "mini_corpus.conllu").read_text("utf-8")
    blocks = [block.split("\n") for block in mini.strip().split("\n\n")]
    rng = random.Random(13)
    dropped = 0
    for k in range(400):
        mutated = _mutated(rng, blocks)
        valid = [lines for lines in mutated if _valid(lines, lexicon)]
        fmt = ("inline", "tsv", "sexpr", "dot")[k % 4]
        text = "\n\n".join("\n".join(lines) for lines in mutated) + "\n"
        lenient = run_cli(["polarize", "--lenient", "--format", fmt, write(tmp_path, "all", text)])
        text = "\n\n".join("\n".join(lines) for lines in valid) + "\n"
        strict = run_cli(["polarize", "--format", fmt, write(tmp_path, "valid", text)])
        assert strict[0] == lenient[0] == 0 and strict[2] == "", (k, strict)
        assert lenient[1] == strict[1], k
        skips = lenient[2].splitlines()
        assert len(skips) == len(mutated) - len(valid), (k, skips)
        assert all(line.startswith("skipping sentence: ") for line in skips)
        dropped += len(skips)
    assert 400 < dropped < 3000, dropped  # most files hold valid and invalid sentences


def test_lenient_eval_is_strict_eval_on_the_valid_blocks(tmp_path, lexicon):
    # eval --lenient scores exactly the valid sentences: on mutated copies
    # of the mini corpus, it prints what strict eval prints on the valid
    # blocks alone, against gold with seeded marks for those blocks only
    mini = (DATA / "mini_corpus.conllu").read_text("utf-8")
    blocks = [block.split("\n") for block in mini.strip().split("\n\n")]
    rng = random.Random(14)
    dropped = 0
    for k in range(100):
        mutated = _mutated(rng, blocks)
        valid = [lines for lines in mutated if _valid(lines, lexicon)]
        gold = "\n\n".join(
            "\n".join(f"{graph.sent_id}\t{t.form}\t{t.upos}\t{rng.choice('↑↓=')}"
                      for t in graph.tokens)
            for lines in valid
            for graph in parse_conllu(lines)
        )
        gold = write(tmp_path, "gold", gold + "\n")
        flags = ["--key-only"] if k % 2 else ["--jobs", "2"]
        text = "\n\n".join("\n".join(lines) for lines in mutated) + "\n"
        lenient = run_cli(["eval", "--lenient", *flags, "--gold", gold, write(tmp_path, "all", text)])
        text = "\n\n".join("\n".join(lines) for lines in valid) + "\n"
        strict = run_cli(["eval", *flags, "--gold", gold, write(tmp_path, "valid", text)])
        assert strict[0] == lenient[0] == 0 and strict[2] == "", (k, strict)
        assert lenient[1] == strict[1], k
        skips = lenient[2].splitlines()
        assert len(skips) == len(mutated) - len(valid), (k, skips)
        assert all(line.startswith("skipping sentence: ") for line in skips)
        dropped += len(skips)
    assert 100 < dropped < 750, dropped  # most files hold valid and invalid sentences


def test_byte_order_mark_is_dropped(tmp_path, monkeypatch):
    # Windows tools start UTF-8 files with U+FEFF
    corpus = (DATA / "mini_corpus.conllu").read_text("utf-8")
    gold = (DATA / "mini_gold.tsv").read_text("utf-8")
    plain = write(tmp_path, "plain.conllu", corpus)
    bom = write(tmp_path, "bom.conllu", "\ufeff" + corpus)
    bom_gold = write(tmp_path, "bom_gold.tsv", "\ufeff" + gold)
    expected = run_cli(["polarize", plain])
    assert expected[0] == 0 and expected[1]
    assert run_cli(["polarize", bom]) == expected
    assert run_cli(["polarize"], stdin_text="\ufeff" + corpus, monkeypatch=monkeypatch) == expected
    scored = run_cli(["eval", plain, "--gold", str(DATA / "mini_gold.tsv")])
    assert scored[0] == 0
    assert run_cli(["eval", bom, "--gold", bom_gold]) == scored


def test_jobs_below_1_is_a_usage_error(tmp_path, capsys):
    path = write(tmp_path, "fig1.conllu", FIG1)
    for jobs in ("0", "-2", "two"):
        code, out, _err = run_cli(["polarize", "--jobs", jobs, path])
        assert (code, out) == (1, "")
        assert "argument --jobs" in capsys.readouterr().err
    assert run_cli(["polarize", "--jobs", "1", path])[0] == 0


MOST_DOGS_BARK = conllu_block(
    [
        (1, "Most", "most", "DET", 2, "det"),
        (2, "dogs", "dog", "NOUN", 3, "nsubj"),
        (3, "bark", "bark", "VERB", 0, "root"),
    ],
    sent_id="most",
    text="Most dogs bark",
)


def test_byte_order_mark_is_dropped_from_lexicon_file(tmp_path):
    conllu = write(tmp_path, "most.conllu", MOST_DOGS_BARK)
    quant = write(tmp_path, "q.tsv", "\ufeffmost\tflat\tflat\texact\n")
    assert run_cli(["polarize", "--lexicon", quant, conllu]) == (0, "Most↑ dogs= bark=\n", "")


def test_byte_order_mark_is_dropped_from_hierarchy_file(tmp_path):
    rows = "# obj above nsubj\nnsubj\t60\nobj\t20\ndet\t55\n"
    fig1 = write(tmp_path, "fig1.conllu", FIG1)
    for name, text in (("h.tsv", rows), ("bom.tsv", "\ufeff" + rows)):
        hier = write(tmp_path, name, text)
        code, out, err = run_cli(["polarize", "--format", "sexpr", "--hierarchy", hier, fig1])
        assert (code, err) == (0, "")
        assert out.startswith("(obj")


def test_hierarchy_errors_name_the_file_and_line(tmp_path):
    conllu = write(tmp_path, "fig1.conllu", FIG1)
    for text, message in (
        ("nsubj\t20\n\nobj 60\n", "line 3: expected label<TAB>level"),
        ("# levels\nnsubj\tx\n", "line 2: non-integer level 'x'"),
        ("nsubj\t10\nnsubj\t60\n", "line 2: duplicate label 'nsubj' (already on line 1)"),
    ):
        hier = write(tmp_path, "h.tsv", text)
        assert run_cli(["polarize", "--hierarchy", hier, conllu]) == (
            1, "", f"error: {hier} {message}\n"
        )


def test_hierarchy_row_with_an_empty_label_is_refused(tmp_path):
    # a leading tab is an empty label, not indentation
    conllu = write(tmp_path, "fig1.conllu", FIG1)
    for text, line in (("obj\t20\n\tnsubj\t20\n", 2), ("\t20\n", 1)):
        hier = write(tmp_path, "h.tsv", text)
        assert run_cli(["polarize", "--hierarchy", hier, conllu]) == (
            1, "", f"error: {hier} line {line}: expected label<TAB>level\n"
        )


def test_bytes_that_are_not_utf8_name_the_file_and_line(tmp_path):
    conllu = write(tmp_path, "fig1.conllu", FIG1)
    gold = write(tmp_path, "gold.tsv", "fig1\tAll\tDET\t^\n")
    bad = tmp_path / "bad.txt"
    # line 3 in text mode: "\r\n" and a lone "\r" each end one line
    bad.write_bytes(b"# one\r\n# two\rx\xffy\n")
    message = f"error: {bad} line 3: byte 0xff is not UTF-8 (invalid start byte)\n"
    for argv in (
        ["polarize", str(bad)],
        ["polarize", "--lexicon", str(bad), conllu],
        ["polarize", "--hierarchy", str(bad), conllu],
        ["eval", "--gold", str(bad), conllu],
    ):
        assert run_cli(argv) == (1, "", message)
    assert run_cli(["eval", "--gold", gold, str(bad)]) == (1, "", message)


def _cli_child(args, stdin=b"", **env):
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-m", "udpolarity.cli", *args],
        input=stdin,
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(src), **env},
    )


def test_stdin_and_stdout_are_utf8_whatever_the_locale(tmp_path):
    # a form outside Latin-1, through stdin and out as marks outside it too
    corpus = FIG1.replace("food", "fo→od").encode("utf-8")
    path = write(tmp_path, "fig1.conllu", corpus.decode("utf-8"))
    expected = "All↑ dogs↓ eat↑ fo→od↑\n".encode("utf-8")
    for encoding in ("utf-8", "latin-1", "ascii"):
        by_file = _cli_child(["polarize", path], PYTHONIOENCODING=encoding)
        by_stdin = _cli_child(["polarize"], corpus, PYTHONIOENCODING=encoding)
        assert (by_file.returncode, by_file.stdout, by_file.stderr) == (0, expected, b"")
        assert (by_stdin.returncode, by_stdin.stdout, by_stdin.stderr) == (0, expected, b"")
    child = _cli_child(["polarize"], corpus.replace(b"\teat\t", b"\te\xffat\t"))
    assert child.returncode == 1
    assert child.stderr == b"error: <stdin> line 5: byte 0xff is not UTF-8 (invalid start byte)\n"


def _cli_popen(args, **streams):
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    return subprocess.Popen(
        [sys.executable, "-m", "udpolarity.cli", *args],
        env={**os.environ, "PYTHONPATH": str(src)},
        stderr=subprocess.PIPE,
        **streams,
    )


def test_closed_pipe_exits_quietly(tmp_path):
    # the reader goes away after one line, as `| head -1` does, while the
    # output is still far larger than the pipe holds
    path = write(tmp_path, "big.conllu",
                 "\n".join(workloads.corpus_pool_block(i) for i in range(500)))
    child = _cli_popen(["polarize", "--lenient", "--format", "tsv", path],
                       stdout=subprocess.PIPE)
    assert child.stdout.readline()
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == 1
    assert err == b""


@pytest.mark.parametrize("args, redirect, stream", [
    (["polarize"], "<&-", "<stdin>"),
    (["eval", "--gold", str(DATA / "mini_gold.tsv")], "<&-", "<stdin>"),
    (["polarize", str(DATA / "mini_corpus.conllu")], ">&-", "<stdout>"),
    (["eval", "--gold", str(DATA / "mini_gold.tsv"), str(DATA / "mini_corpus.conllu")], ">&-",
     "<stdout>"),
], ids=["polarize-stdin", "eval-stdin", "polarize-stdout", "eval-stdout"])
def test_closed_stream_is_an_error(args, redirect, stream):
    # a stream closed before start-up, as `<&-` and `>&-` leave it, is None
    # in sys; reading or writing it once ended in a traceback
    child = _cli_sh(args, redirect)
    assert b"Traceback" not in child.stderr
    assert (child.returncode, child.stdout, child.stderr) == (
        1, b"", f"error: {stream} is closed\n".encode())


def _cli_sh(args, redirect):
    """The CLI run through `sh -c` with `redirect` applied to it."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        ["sh", "-c", f'"$@" {redirect}', "sh", sys.executable, "-m", "udpolarity.cli", *args],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )


@pytest.mark.parametrize("lenient", [True, False], ids=["lenient", "strict"])
def test_closed_stderr_drops_diagnostics_and_keeps_the_exit_code(tmp_path, lenient):
    # a skip or error line written to a closed stderr once raised, so a
    # lenient run that skipped a sentence exited 1 and printed nothing
    bad = write(tmp_path, "bad.conllu", "1\tonly\tthree\n")
    args = ["polarize", *(["--lenient"] if lenient else []), bad, str(DATA / "mini_corpus.conllu")]
    opened, closed = _cli_sh(args, ""), _cli_sh(args, "2>&-")
    assert closed.stderr == b""
    if lenient:
        assert opened.returncode == 0 and opened.stdout.count(b"\n") == 10
        assert (closed.returncode, closed.stdout) == (0, opened.stdout)
    else:
        assert (closed.returncode, closed.stdout) == (1, b"")


class _DeadStream(io.StringIO):
    def write(self, text):
        raise OSError(9, "Bad file descriptor")


@pytest.mark.parametrize("stderr", [None, _DeadStream()], ids=["none", "dead"])
def test_stderr_closed_in_process_drops_diagnostics(tmp_path, monkeypatch, stderr):
    # where stderr was closed before start-up, sys.stderr is None, and a
    # print() to None writes to stdout; where it is a stream whose file
    # descriptor was closed, writing it raises
    text = "1\tonly\tthree\n\n" + FIG1
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", stderr)
    assert main(["polarize", "--lenient", write(tmp_path, "mixed.conllu", text)]) == 0
    assert out.getvalue() == "All↑ dogs↓ eat↑ food↑\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
@pytest.mark.parametrize("command", [
    ["polarize", str(DATA / "mini_corpus.conllu")],
    ["eval", "--gold", str(DATA / "mini_gold.tsv"), str(DATA / "mini_corpus.conllu")],
], ids=["polarize", "eval"])
def test_output_that_cannot_be_written_is_an_error(command):
    with open("/dev/full", "wb") as full:
        child = _cli_popen(command, stdout=full)
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=60) == 1
    assert err == b"error: [Errno 28] No space left on device\n"



@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """(CoNLL-U, gold) paths of the mini corpus and of 2000 corpus-pool
    sentences (with a gold that aligns, every mark ↑), under "valid"; the
    same after one invalid sentence, which --lenient skips, under "invalid"."""
    tmp = tmp_path_factory.mktemp("inputs")
    mini, mini_gold = str(DATA / "mini_corpus.conllu"), str(DATA / "mini_gold.tsv")
    text = "\n".join(workloads.corpus_pool_block(i) for i in range(2000))
    pool = write(tmp, "pool.conllu", text)
    code, tsv, _err = run_cli(["polarize", "--format", "tsv", pool])
    assert code == 0
    gold = "\n".join(
        "\t".join(["s", *row.split("\t")[1:3], "^"]) if row else "" for row in tsv.splitlines()
    )
    pool_gold = write(tmp, "pool-gold.tsv", gold + "\n")
    bad = "1\tonly\tthree\n\n"
    return {
        "valid": [(mini, mini_gold), (pool, pool_gold)],
        "invalid": [
            (write(tmp, "bad-mini.conllu", bad + pathlib.Path(mini).read_text("utf-8")), mini_gold),
            (write(tmp, "bad-pool.conllu", bad + text), pool_gold),
        ],
    }


def _cyclic_garbage(argv):
    """`cyclic_garbage` of `main(argv)`, its output dropped: the exit code
    comes first."""
    return cyclic_garbage(lambda: main(argv, out=io.StringIO(), err=io.StringIO()))


def _failing_odd_trees(tree, lexicon):
    """polarize(), then a MarkError on a tree with an odd leaf count."""
    polarize(tree, lexicon)
    if tree.size % 2:
        raise MarkError("odd")
    return tree


@pytest.mark.parametrize("argv, kind", [
    *((["polarize", "--format", fmt], "valid") for fmt in ("inline", "tsv", "sexpr", "dot")),
    (["eval", "--key-only"], "valid"),
    (["polarize", "--lenient", "--format", "sexpr"], "invalid"),
    (["eval", "--lenient"], "invalid"),
    (["polarize", "--lenient", "--format", "tsv"], "mark-error"),
], ids=["inline", "tsv", "sexpr", "dot", "eval", "lenient", "eval-lenient", "mark-error"])
def test_a_run_leaves_no_cyclic_garbage_from_its_sentences(monkeypatch, inputs, argv, kind):
    # polarize() leaves each sentence's tree acyclic, so reference
    # counting frees it: what the collector finds is argparse's, as much
    # after 2000 sentences as after 10, and no tree or token is in it
    if kind == "mark-error":
        monkeypatch.setattr(cli, "polarize", _failing_odd_trees)
    found = set()
    for conllu, gold in inputs["invalid" if kind == "invalid" else "valid"]:
        gold_args = ["--gold", gold] if argv[0] == "eval" else []
        code, count, kept = _cyclic_garbage([*argv, *gold_args, conllu])
        assert (code, kept) == (0, False), (conllu, count)
        found.add(count)
    assert len(found) == 1, found


@pytest.mark.parametrize("command", ["polarize", "render", "eval"])
def test_a_second_main_leaves_no_cyclic_garbage(inputs, command):
    # main() builds its argument parser once a process: an in-process call
    # after the first leaves the collector nothing, argparse's objects
    # included
    (mini, gold), _ = inputs["valid"]
    argv = [command, *(["--gold", gold] if command == "eval" else []), mini]
    assert main(argv, out=io.StringIO(), err=io.StringIO()) == 0
    assert _cyclic_garbage(argv) == (0, 0, False)


def test_the_process_entry_prints_what_main_prints(inputs):
    # `python -m udpolarity.cli` exits through `entry`, which freezes the
    # heap after main() returns: the bytes and the exit code stay main()'s
    (mini, _), (pool, pool_gold) = inputs["valid"]
    (invalid, _), _ = inputs["invalid"]
    commands = [["polarize", "--format", fmt, pool] for fmt in ("inline", "tsv", "sexpr", "dot")]
    commands += [["polarize", invalid], ["eval", "--gold", pool_gold, mini]]  # exit 1, exit 2
    children = [_cli_popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
                for argv in commands]  # they run while main() does
    codes = []
    for argv, child in zip(commands, children):
        code, out, err = run_cli(argv)
        stdout, stderr = child.communicate(timeout=60)
        assert (child.returncode, stdout, stderr) == (
            code, out.encode("utf-8"), err.encode("utf-8")), argv
        codes.append(code)
    assert codes == [0, 0, 0, 0, 1, 2]


def test_only_the_process_entry_freezes_the_heap():
    # main() is called in-process by tests and host programs: it must not
    # freeze their heap; the process entry, shared by `python -m
    # udpolarity.cli` and the `udpolarity` script, does
    frozen = gc.get_freeze_count()
    assert run_cli(["polarize", str(DATA / "mini_corpus.conllu")])[0] == 0
    assert gc.get_freeze_count() == frozen
    script = (
        "import gc, runpy, sys\n"
        "sys.argv = ['udpolarity', 'polarize']\n"
        "try:\n"
        "    runpy.run_module('udpolarity.cli', run_name='__main__')\n"
        "finally:\n"
        "    print(gc.get_freeze_count())\n"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    child = subprocess.run([sys.executable, "-c", script], input="", capture_output=True,
                           text=True, env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert int(child.stdout) > 0
    pyproject = (src.parent / "pyproject.toml").read_text("utf-8")
    assert '\nudpolarity = "udpolarity.cli:entry"\n' in pyproject
