"""Benchmark of udpolarity: CLI throughput, sentence latency, set-up time
and peak memory on seeded workloads, and per-layer costs from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 40 --trace 0

Workloads are `corpus`, `deep` and `gold` (see workloads.py). With
`--trace 0` the run measures the end-to-end metrics with tracing off; with
`--trace 1` it reports per-layer figures from spans instead. Standard output
ends with one JSON line {"correct", "attempted", "failed", "metrics"}; the
lines before it are a readable table. Exit status: 0 when every correctness
check passed, 1 when one failed, 2 when the package or its test data is
missing.
"""

import argparse
import collections
import hashlib
import io
import json
import os
import pathlib
import statistics
import subprocess
import sys
import threading
import time
import traceback

import spans
import speed
import workloads

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = ROOT / "tests" / "data"
GOLDEN = BENCH / "golden"
OUT = ROOT / ".perfbench-out"

CLI_TIMEOUT_S = 150
# The CLI gets each workload as this many files, one invocation per file,
# so that a single CLI run is short and the run holds many of them.
CLI_BATCHES = {"corpus": 2, "deep": 3, "gold": 2}
WARMUP_SENTENCES = 20
KEY_UPOS = {"NOUN", "PROPN", "VERB", "ADJ", "ADV", "DET", "NUM"}  # the paper's key tokens
CHAIN_FIT_MIN_LENGTH = 50  # shorter chains are dominated by per-call overhead


def sexpr_hash(line):
    return hashlib.sha1(line.encode("utf-8")).hexdigest()[:12]


def load_program():
    """Import the package from this checkout's src/, or exit 2."""
    needed = [SRC / "udpolarity" / "cli.py", DATA / "mini_corpus.conllu",
              DATA / "mini_gold.tsv", DATA / "expected_failures.tsv"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a udpolarity checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import udpolarity
    import udpolarity.cli

    if pathlib.Path(udpolarity.__file__).resolve().parent != SRC / "udpolarity":
        print(f"perfbench: imported udpolarity from {udpolarity.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return udpolarity


def chunked(n, chunks):
    return [range(n * c // chunks, n * (c + 1) // chunks) for c in range(chunks)]


# ------------------------------------------------------------ CLI runs


CliRun = collections.namedtuple("CliRun", "wall_s peak_rss_mb code stdout stderr")


def run_cli(args, workdir):
    """One `python -m udpolarity.cli` child on empty stdin; RSS from its
    own rusage."""
    out_path = workdir / "cli.out"
    err_path = workdir / "cli.err"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(os.devnull, "rb") as fin, open(out_path, "wb") as fout, \
            open(err_path, "wb") as ferr:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "udpolarity.cli", *args],
            stdin=fin, stdout=fout, stderr=ferr, env=env, cwd=ROOT,
        )
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliRun(wall, usage.ru_maxrss / 1024, proc.returncode,
                  out_path.read_text("utf-8"), err_path.read_text("utf-8"))


# ------------------------------------------------------------ workloads


class Workload:
    """Generated input plus the checks for its CLI and library outputs.

    `blocks[i]` is sentence i as CoNLL-U and `keys[i]` its trace id.
    `write_batches` writes the CLI input files and returns one
    (sentence range, argv without --jobs) per CLI invocation. check_cli
    returns the number of failed sentences of one CLI run on a range;
    check_library whether one sentence's library result is right.
    """

    def __init__(self, name, keys, blocks):
        self.name = name
        self.keys = keys
        self.blocks = blocks

    def write_batches(self, workdir, count):
        batches = []
        for b, rng in enumerate(chunked(len(self.blocks), count)):
            path = workdir / f"input-{b}.conllu"
            path.write_text("\n".join(self.blocks[i] for i in rng), "utf-8")
            batches.append((rng, self.argv(workdir, b, rng, path)))
        return batches


class SexprWorkload(Workload):
    """corpus and deep: `polarize --format sexpr` against golden hashes.

    Every output (CLI at --jobs 1, at --jobs 2, library path) is compared
    with the golden line of its sentence, so all of them equal each other.
    """

    def __init__(self, name, keys, blocks, golden):
        super().__init__(name, keys, blocks)
        self.expected = [golden[str(k)] for k in keys]

    def argv(self, workdir, b, rng, path):
        return ["polarize", "--format", "sexpr", str(path)]

    def check_cli(self, run, rng):
        expected = self.expected[rng.start:rng.stop]
        lines = run.stdout.split("\n")
        if run.code != 0 or len(lines) != len(expected) + 1 or lines[-1]:
            return len(expected)
        return sum(sexpr_hash(line) != want for line, want in zip(lines, expected))

    def check_library(self, i, graph, annotated, rendered):
        return graph is not None and sexpr_hash(rendered) == self.expected[i]


def _read_golden(name):
    golden = {}
    with open(GOLDEN / f"{name}.sexpr.sha1", encoding="utf-8") as f:
        for line in f:
            key, digest = line.split()
            golden[key] = digest
    return golden


class GoldWorkload(Workload):
    """The mini corpus replicated, through `eval --lenient --key-only`.

    The reference is independent of the program: the hand-written gold
    marks, with exactly the tokens of expected_failures.tsv diverging.
    """

    def __init__(self, seed):
        corpus_text = (DATA / "mini_corpus.conllu").read_text("utf-8")
        gold_text = (DATA / "mini_gold.tsv").read_text("utf-8")
        origins, blocks, self.gold_blocks = workloads.gold(seed, corpus_text, gold_text)
        super().__init__("gold", list(range(len(blocks))), blocks)
        self.origins = origins
        self.gold = {}  # sid -> [(form, upos, mark)]
        for block in workloads.read_blocks(gold_text):
            rows = [ln.split("\t") for ln in block if not ln.startswith("#")]
            self.gold[rows[0][0]] = [tuple(r[1:]) for r in rows]
        self.diverging = {sid: set() for sid in self.gold}  # sid -> {(id, form)}
        for line in (DATA / "expected_failures.tsv").read_text("utf-8").splitlines():
            if line and not line.startswith("#"):
                sid, tid, form, _reason = line.split("\t")
                self.diverging[sid].add((int(tid), form))
        self.scored = self._scored_keys(corpus_text)

    def _scored_keys(self, corpus_text):
        """sid -> (key tokens scored, of which diverging)."""
        punct = set()  # (sid, token id) of unscored tokens
        for block in workloads.read_blocks(corpus_text):
            sid = workloads.conllu_sent_id(block)
            for ln in block:
                if not ln.startswith("#"):
                    cols = ln.split("\t")
                    if cols[3] == "PUNCT" or cols[7] == "punct":
                        punct.add((sid, int(cols[0])))
        scored = {}
        for sid, rows in self.gold.items():
            keys = {tid for tid, (_f, upos, _m) in enumerate(rows, start=1)
                    if upos in KEY_UPOS and (sid, tid) not in punct}
            wrong = {tid for tid, _form in self.diverging[sid]}
            scored[sid] = (len(keys), len(wrong & keys))
        return scored

    def argv(self, workdir, b, rng, path):
        gold_path = workdir / f"gold-{b}.tsv"
        gold_path.write_text(
            "\n\n".join(g for g in self.gold_blocks[rng.start:rng.stop] if g) + "\n", "utf-8")
        return ["eval", "--lenient", "--key-only", "--gold", str(gold_path), str(path)]

    def expected_report(self, rng):
        """The key-only report the gold and expected failures imply."""
        sids = [sid for sid in self.origins[rng.start:rng.stop] if sid is not None]
        total = sum(self.scored[sid][0] for sid in sids)
        wrong = sum(self.scored[sid][1] for sid in sids)
        good = sum(not self.scored[sid][1] for sid in sids)
        token_acc = f"{100.0 * (total - wrong) / total:.6f}"
        sent_acc = f"{100.0 * good / len(sids):.6f}"
        return {
            "token_accuracy_all": token_acc, "token_accuracy_key": token_acc,
            "sentence_accuracy_all": sent_acc, "sentence_accuracy_key": sent_acc,
            "sentences": str(len(sids)),
            "tokens_scored_all": str(total), "tokens_scored_key": str(total),
        }

    def check_cli(self, run, rng):
        report = dict(ln.split("=", 1) for ln in run.stdout.splitlines() if "=" in ln)
        skipped = sum(ln.startswith("skipping sentence:") for ln in run.stderr.splitlines())
        ok = (
            run.code == 0
            and skipped == self.origins[rng.start:rng.stop].count(None)
            and all(report.get(k) == v for k, v in self.expected_report(rng).items())
        )
        return 0 if ok else len(rng)

    def check_library(self, i, graph, annotated, rendered):
        sid = self.origins[i]
        if sid is None or graph is None:
            return sid is None and graph is None  # injected blocks must be refused
        rows = self.gold[sid]
        if [tok.form for tok, _ in annotated.tokens] != [r[0] for r in rows]:
            return False
        wrong = {
            (tok.id, tok.form)
            for (tok, mark), (_form, _upos, gold_mark) in zip(annotated.tokens, rows)
            if mark is not None and mark.value != gold_mark
        }
        return wrong == self.diverging[sid]


def build_workload(name, seed):
    if name == "gold":
        return GoldWorkload(seed)
    keys, blocks = getattr(workloads, name)(seed)
    return SexprWorkload(name, keys, blocks, _read_golden(name))


def deep_ladder(seed):
    """One deep chain per (kind, length), for the chain figures of the
    traced runs of the other workloads."""
    keys, _ = workloads.deep(seed)
    first = {}
    for key in keys:
        kind, n, _variant = key.split("-")
        first.setdefault((kind, n), key)
    ladder = sorted(first.values())
    return SexprWorkload("deep", ladder, [workloads.deep_block(k) for k in ladder],
                         _read_golden("deep"))


# ------------------------------------------------------------ library path


class Tally:
    """Sentences attempted and failed, and first failure details."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def add(self, attempted, failed, note):
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.notes) < 5:
            self.notes.append(note)


def library_pass(wl, indices, stages, lexicon, hierarchy, tally, tracer=None):
    """parse -> binarize -> polarize -> project -> render, one sentence at a
    time, with a speed probe before each sentence and after the last.

    Returns [(i, seconds at nominal speed)] for every sentence that went
    through all stages, each scaled by the probes on either side of it, and
    the probe samples.
    """
    conllu_error = sys.modules["udpolarity.conllu"].ConlluError
    timed, probes = [], [speed.probe()]
    for i in indices:
        if tracer is not None:
            tracer.trace_id = wl.keys[i]
        graph = annotated = rendered = None
        t0 = time.perf_counter()
        try:
            try:
                (graph,) = stages.parse(wl.blocks[i])
            except conllu_error:
                pass  # checked below: only injected blocks may be refused
            else:
                tree = stages.binarize(graph, hierarchy)
                stages.polarize(tree, lexicon)
                annotated = stages.project(tree, graph)
                rendered = stages.render(annotated, "sexpr")
                timed.append((i, time.perf_counter() - t0, len(probes)))
        except Exception:
            tally.add(1, 1, f"{wl.name} sentence {i}: {traceback.format_exc()}")
            continue
        finally:
            probes.append(speed.probe())
        ok = wl.check_library(i, graph, annotated, rendered)
        tally.add(1, not ok, f"{wl.name} sentence {i}: wrong library output")
    scaled = [(i, raw * speed.factor(probes[k - 1:k + 1])) for i, raw, k in timed]
    return scaled, probes


def untraced_stages(udpolarity):
    return spans.Stages(udpolarity.parse_conllu, udpolarity.binarize, udpolarity.polarize,
                        udpolarity.project_to_tokens, udpolarity.render)


def warm_up(wl, udpolarity, lexicon, hierarchy):
    shortest = sorted(range(len(wl.blocks)), key=lambda i: len(wl.blocks[i]))
    library_pass(wl, shortest[:WARMUP_SENTENCES], untraced_stages(udpolarity),
                 lexicon, hierarchy, Tally())


# ------------------------------------------------------------ measuring


class Cores:
    """Keeps this process on one core, so that a speed probe runs on the
    core a --jobs 1 CLI child (which inherits the affinity) runs on."""

    def __init__(self):
        self.all = os.sched_getaffinity(0)
        self.home = min(self.all)
        os.sched_setaffinity(0, {self.home})

    def cli(self, argv, workdir, jobs):
        """One CLI run on as many cores as it has jobs, bracketed by speed
        probes on each of those cores; returns the run and its wall time
        scaled by the mean of the cores' speeds (a pool shares its tasks
        out as workers come free, so its rate is the sum of theirs). A
        core's speed is its probe factor times the share of the run the
        host let it run."""
        cpus = {self.home} if jobs == 1 else self.all
        before = {cpu: speed.burst(cpu) for cpu in cpus}
        stolen = speed.steal_s()
        os.sched_setaffinity(0, cpus)
        try:
            run = run_cli(argv + ["--jobs", str(jobs)], workdir)
        finally:
            os.sched_setaffinity(0, {self.home})
        stolen = {cpu: t - stolen[cpu] for cpu, t in speed.steal_s().items()}
        scale = statistics.fmean(
            speed.factor(before[cpu] + speed.burst(cpu))
            # steal comes in 10 ms ticks, which can overstate it on a short run
            * max(0.5, 1 - stolen[cpu] / run.wall_s)
            for cpu in cpus
        )
        return run, run.wall_s * scale


def measure(wl, workdir, seconds, udpolarity):
    """End-to-end metrics, tracing off.

    Each step runs one empty-input CLI run (the set-up probe), every CLI
    batch at --jobs 1 and at --jobs 2, and one library pass over the whole
    workload. Steps repeat while the next one still fits in `seconds`.
    Every timing is scaled to nominal speed (see speed.py); a metric is the
    median of its scaled samples.
    """
    tally = Tally()
    cores = Cores()
    lexicon = udpolarity.load_lexicon()
    hierarchy = udpolarity.RelationHierarchy.default()
    warm_up(wl, udpolarity, lexicon, hierarchy)
    stages = untraced_stages(udpolarity)
    batches = wl.write_batches(workdir, CLI_BATCHES[wl.name])
    setup, rss, latencies = [], [], {}
    walls = {(b, jobs): [] for b in range(len(batches)) for jobs in (1, 2)}
    start = time.perf_counter()
    longest = 0.0
    steps = 0
    while True:
        t0 = time.perf_counter()
        run, wall = cores.cli(["polarize", "--format", "sexpr"], workdir, 1)
        setup.append(wall)
        bad = run.code != 0 or bool(run.stdout)
        tally.add(1, bad, f"empty-input CLI run: exit {run.code}: {run.stderr}")
        for (b, jobs), samples in walls.items():
            rng, argv = batches[b]
            run, wall = cores.cli(argv, workdir, jobs)
            samples.append(wall)
            if jobs == 1:
                rss.append(run.peak_rss_mb)
            failed = wl.check_cli(run, rng)
            tally.add(len(rng), failed, f"CLI batch {b} --jobs {jobs}: exit {run.code}, "
                                        f"{failed} wrong: {run.stderr[-2000:]}")
        scaled, _ = library_pass(wl, range(len(wl.blocks)), stages, lexicon, hierarchy, tally)
        for i, seconds_i in scaled:
            latencies.setdefault(i, []).append(seconds_i)
        steps += 1
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - start + longest > seconds:
            break
    n = len(wl.blocks)
    per_sentence = [statistics.median(samples) for samples in latencies.values()]

    def throughput(jobs):
        return n / sum(statistics.median(walls[(b, jobs)]) for b in range(len(batches)))

    metrics = {
        "cli_sents_per_s": (throughput(1), "1/s", steps),
        "cli_jobs2_sents_per_s": (throughput(2), "1/s", steps),
        "sent_latency_p50_ms": (statistics.median(per_sentence) * 1e3, "ms", len(per_sentence)),
        "sent_latency_p90_ms": (statistics.quantiles(per_sentence, n=10)[8] * 1e3, "ms",
                                len(per_sentence)),
        "peak_rss_mb": (statistics.median(rss), "MB", len(rss)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "ok_share": (1 - tally.failed / tally.attempted, "ratio", tally.attempted),
    }
    return metrics, tally, steps


def traced(wl, workdir, seconds, udpolarity, seed):
    """Per-layer metrics from spans (see spans.py).

    Each round runs `cli.main` in-process at --jobs 1 on every CLI batch
    with every public call spanned, then the whole workload through the
    library path untraced and traced (for the tracing overhead). The chain
    figures come from the polarize spans of the traced library pass; on
    workloads other than deep, one chain per kind and length of the deep
    ladder runs through the traced library path for them. A round's times
    are scaled to nominal speed by the median of its speed probes.
    """
    cli = sys.modules["udpolarity.cli"]
    tally = Tally()
    cores = Cores()
    lexicon = udpolarity.load_lexicon()
    hierarchy = udpolarity.RelationHierarchy.default()
    warm_up(wl, udpolarity, lexicon, hierarchy)
    plain = untraced_stages(udpolarity)
    batches = wl.write_batches(workdir, CLI_BATCHES[wl.name])
    ladder = wl if wl.name == "deep" else deep_ladder(seed)
    ladder_keys = set(ladder.keys)
    layers, overhead, chain_times = [], [], {}
    start = time.perf_counter()
    longest = 0.0
    rounds = 0
    while True:
        t0 = time.perf_counter()
        tracer = spans.Tracer()
        probes = speed.burst(cores.home)
        with spans.instrument(tracer):
            tracer.trace_id = "cli"
            main = tracer.wrap("cli.main", cli.main)
            for b, (rng, argv) in enumerate(batches):
                out, err = io.StringIO(), io.StringIO()
                code = main(argv + ["--jobs", "1"], out=out, err=err)
                failed = wl.check_cli(CliRun(0.0, 0.0, code, out.getvalue(), err.getvalue()),
                                      rng)
                tally.add(len(rng), failed,
                          f"in-process CLI batch {b}: exit {code}, {failed} wrong")
        probes += speed.burst(cores.home)
        scale = speed.factor(probes)
        layers.append({
            name: value * scale if spans.LAYER_UNITS[name] in ("us", "ms") else value
            for name, value in spans.cli_layers(tracer.spans, "cli", len(wl.blocks)).items()
        })

        everything = range(len(wl.blocks))
        pass_s = {}
        for tracing in (rounds % 2 == 0, rounds % 2 == 1):  # alternate which goes first
            if tracing:
                with spans.instrument(tracer) as stages:
                    scaled, samples = library_pass(wl, everything, stages, lexicon,
                                                   hierarchy, tally, tracer=tracer)
            else:
                scaled, samples = library_pass(wl, everything, plain, lexicon, hierarchy,
                                               tally)
            pass_s[tracing] = sum(s for _, s in scaled)
            probes += samples
        overhead.append(100.0 * (pass_s[True] / pass_s[False] - 1))
        if ladder is not wl:
            with spans.instrument(tracer) as stages:
                _, samples = library_pass(ladder, range(len(ladder.blocks)), stages, lexicon,
                                          hierarchy, tally, tracer=tracer)
            probes += samples
        scale = speed.factor(probes)
        for key, times in spans.polarize_times(tracer.spans).items():
            if key in ladder_keys:
                kind, n, _variant = key.split("-")
                chain_times.setdefault((kind, int(n)), []).extend(t * scale for t in times)
        rounds += 1
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - start + longest > seconds:
            break

    metrics = {}
    for name, unit in spans.LAYER_UNITS.items():
        metrics[name] = (statistics.median(l[name] for l in layers), unit, len(layers))
    metrics["trace.overhead_pct"] = (statistics.median(overhead), "%", len(overhead))
    for kind in workloads.DEEP_KINDS:
        medians = {n: statistics.median(chain_times[(kind, n)])
                   for n, _count in workloads.DEEP_LADDER}
        fit = [(n, t) for n, t in medians.items() if n >= CHAIN_FIT_MIN_LENGTH]
        metrics[f"polarize.{kind}_chain_exponent"] = (
            spans.loglog_slope(fit), "slope", len(fit))
        for n, t in medians.items():
            metrics[f"polarize.{kind}_chain_ms.n{n}"] = (
                t * 1e3, "ms", len(chain_times[(kind, n)]))
    with open(workdir / "spans.json", "w", encoding="utf-8") as f:
        json.dump(tracer.spans, f)
    return metrics, tally, rounds


# ------------------------------------------------------------ main


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["corpus", "deep", "gold"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    udpolarity = load_program()
    begin = time.perf_counter()
    wl = build_workload(args.workload, args.seed)
    workdir = OUT / f"{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        metrics, tally, steps = traced(wl, workdir, args.seconds, udpolarity, args.seed)
    else:
        metrics, tally, steps = measure(wl, workdir, args.seconds, udpolarity)

    print(f"workload {wl.name}  seed {args.seed}  sentences {len(wl.blocks)}  "
          f"steps {steps}  trace {args.trace}  wall {time.perf_counter() - begin:.1f} s")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<34} {value:>12.4f} {unit:<7} n={samples}")
    print(f"  failed {tally.failed} of {tally.attempted} sentence checks")
    for note in tally.notes:
        print(f"  FAILED: {note}", file=sys.stderr)
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _n) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
