"""Recompute the golden s-expression hashes with the CLI of this checkout.

    python3 perfbench/capture_golden.py

Writes golden/corpus.sexpr.sha1 (every sentence of the corpus pool) and
golden/deep.sexpr.sha1 (every chain of the deep ladder, every variant):
one `key hash` line per sentence, the hash being the first 12 hex digits of
the SHA-1 of its `polarize --format sexpr` line. The committed files were
captured at the commit that added the benchmark. They are a regression
reference for byte-identical output, not an independent oracle: rerun this
only for a change whose output is meant to differ.
"""

import sys

import run
import workloads


def capture(name, keys, blocks):
    workdir = run.OUT / f"golden-{name}"
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "input.conllu"
    path.write_text("\n".join(blocks), "utf-8")
    result = run.run_cli(["polarize", "--format", "sexpr", "--jobs", "1", str(path)], workdir)
    lines = result.stdout.split("\n")
    if result.code != 0 or len(lines) != len(keys) + 1:
        sys.exit(f"capture of {name} failed: exit {result.code}\n{result.stderr}")
    run.GOLDEN.mkdir(exist_ok=True)
    with open(run.GOLDEN / f"{name}.sexpr.sha1", "w", encoding="utf-8") as f:
        for key, line in zip(keys, lines):
            f.write(f"{key} {run.sexpr_hash(line)}\n")
    print(f"{name}: {len(keys)} sentences in {result.wall_s:.1f} s")


def main():
    pool = range(workloads.CORPUS_POOL)
    capture("corpus", list(pool), [workloads.corpus_pool_block(i) for i in pool])
    keys = [
        workloads.deep_key(kind, n, variant)
        for kind in workloads.DEEP_KINDS
        for n, _count in workloads.DEEP_LADDER
        for variant in range(workloads.DEEP_VARIANTS)
    ]
    capture("deep", keys, [workloads.deep_block(k) for k in keys])


if __name__ == "__main__":
    main()
