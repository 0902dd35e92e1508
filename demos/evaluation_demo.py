"""Scoring demo: run the annotator over the bundled mini corpus and score
it against the hand-annotated gold file.

Run from the repository root:

    python demos/evaluation_demo.py

The mini corpus reconstructs the published example sentences; the
expected-failures file lists the scalar-number tokens where the system's
at-least reading deliberately diverges from gold.
"""

import pathlib

from udpolarity import (
    align,
    binarize,
    evaluate,
    load_gold,
    parse_conllu,
    polarize,
    project_to_tokens,
    render_inline,
    render_report,
)

DATA = pathlib.Path(__file__).parent.parent / "tests" / "data"


def main():
    graphs = parse_conllu((DATA / "mini_corpus.conllu").read_text("utf-8"))
    gold = load_gold(DATA / "mini_gold.tsv")

    predicted = []
    for graph in graphs:
        tree = binarize(graph)
        polarize(tree)
        ann = project_to_tokens(tree, graph)
        predicted.append(ann.tokens)
        print(f"{graph.sent_id:18} {render_inline(ann)}")

    pairs = align(predicted, gold)
    report = evaluate(pairs)
    print()
    print(render_report(report))

    print("\nper-token mismatches against gold:")
    for sent, gs in zip(pairs, gold):
        for idx, tok in enumerate(sent, start=1):
            if tok.predicted is not None and tok.predicted is not tok.gold:
                print(
                    f"  {gs.sent_id}: token {idx} {tok.form!r} "
                    f"system {tok.predicted.pretty} gold {tok.gold.pretty}"
                )
    print("\n(see tests/data/expected_failures.tsv for why each divergence exists)")


if __name__ == "__main__":
    main()
