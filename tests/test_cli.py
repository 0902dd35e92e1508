import io
import pathlib

from udpolarity import binarize, parse_conllu, polarize, project_to_tokens, render_inline
from udpolarity.cli import main

from .conftest import DATA, conllu_block, workloads

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
        import sys

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
