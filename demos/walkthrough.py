"""End-to-end walkthrough: CoNLL-U in, polarity marks out.

Run from the repository root:

    python demos/walkthrough.py

Each stage of the pipeline is shown on a handful of sentences: the
dependency parse, the binarized s-expression, and the marked output.
"""

from udpolarity import (
    binarize,
    parse_conllu,
    polarize,
    project_to_tokens,
    render_dot,
    render_inline,
    to_sexpression,
)

CORPUS = """\
# sent_id = walkthrough-1
# text = All dogs eat apples
1	All	all	DET	_	_	2	det	_	_
2	dogs	dog	NOUN	_	_	3	nsubj	_	_
3	eat	eat	VERB	_	_	0	root	_	_
4	apples	apple	NOUN	_	_	3	obj	_	_

# sent_id = walkthrough-2
# text = No student refused to dance without shoes
1	No	no	DET	_	_	2	det	_	_
2	student	student	NOUN	_	_	3	nsubj	_	_
3	refused	refuse	VERB	_	_	0	root	_	_
4	to	to	PART	_	_	5	mark	_	_
5	dance	dance	VERB	_	_	3	xcomp	_	_
6	without	without	ADP	_	_	7	case	_	_
7	shoes	shoe	NOUN	_	_	5	obl	_	_

# sent_id = walkthrough-3
# text = Every member forgot to attend the meeting
1	Every	every	DET	_	_	2	det	_	_
2	member	member	NOUN	_	_	3	nsubj	_	_
3	forgot	forget	VERB	_	_	0	root	_	_
4	to	to	PART	_	_	5	mark	_	_
5	attend	attend	VERB	_	_	3	xcomp	_	_
6	the	the	DET	_	_	7	det	_	_
7	meeting	meeting	NOUN	_	_	5	obj	_	_
"""


def main():
    for graph in parse_conllu(CORPUS):
        print("=" * 72)
        print(f"sentence: {graph.sentence_text}")
        print("\nparse edges (head <-deprel- dependent):")
        by_id = {t.id: t for t in graph.tokens}
        for tok in graph.tokens:
            head = "ROOT" if tok.head == 0 else by_id[tok.head].form
            print(f"  {head:>10} <-{tok.deprel}- {tok.form}")

        tree = binarize(graph)
        print("\nbinarized:")
        print(f"  {to_sexpression(tree)}")

        polarize(tree)
        print("\npolarized:")
        print(f"  {to_sexpression(tree)}")

        annotated = project_to_tokens(tree, graph)
        print("\ntoken marks:")
        print(f"  {render_inline(annotated)}")
        print()

    # the last tree as Graphviz DOT, ready for `dot -Tpng`
    print("=" * 72)
    print("DOT rendering of the last sentence:\n")
    print(render_dot(annotated))


if __name__ == "__main__":
    main()
