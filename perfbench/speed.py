"""The speed the machine runs at, measured next to each timing.

The 2-core virtual machine the benchmark was defined on shares its cores
with other tenants. Each core's speed flips between full and about half
from one tenth of a second to the next, and the share of slow time drifts
over minutes, so raw times of the same code move by 15-36% between runs.
A fixed piece of pure Python (`probe`), timed on the same core right
before and after each sample, measures the speed that sample ran at. A
timing is then reported as `raw * NOMINAL_S / probe time`: the time it
would take at the speed at which the probe takes NOMINAL_S, which is about
an uncontended core of that machine. A CLI run is also credited with the
time the host kept its cores from running (`steal_s`).

The probe does not use the package, so a change to the program moves the
scaled figures as it moves the raw ones.
"""

import os
import statistics
import time

import workloads

# the probe's time on an uncontended core of the 2-core, 2.0 GHz machine
NOMINAL_S = 8.5e-5
BURST = 8  # probes on each core before and after a CLI run
_TICKS_PER_S = os.sysconf("SC_CLK_TCK")

_TEXT = workloads.corpus_pool_block(0)


class _Row:
    __slots__ = ("form", "head", "rel")

    def __init__(self, form, head, rel):
        self.form = form
        self.head = head
        self.rel = rel


def probe():
    """Seconds for one pass of a fixed tree-building job: read CoNLL-U
    rows into objects, link heads to children, render the tree."""
    start = time.perf_counter()
    rows = {}
    for line in _TEXT.splitlines():
        if line and line[0] != "#":
            cols = line.split("\t")
            rows[int(cols[0])] = _Row(cols[1], int(cols[6]), cols[7])
    children = {}
    for i, row in rows.items():
        children.setdefault(row.head, []).append(i)

    def show(i):
        inner = " ".join(show(c) for c in sorted(children.get(i, ())))
        return f"({rows[i].rel} {rows[i].form} {inner})"

    show(children[0][0])
    return time.perf_counter() - start


def factor(samples):
    """Scale from raw time to nominal speed, given probe samples."""
    return NOMINAL_S / statistics.median(samples)


def burst(cpu):
    """BURST probes on core `cpu`, then back to the current affinity."""
    home = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        return [probe() for _ in range(BURST)]
    finally:
        os.sched_setaffinity(0, home)


def steal_s():
    """core -> seconds it has been ready to run but not run by the host
    (steal time in /proc/stat). Short probes miss these gaps, which grow
    when both cores are busy."""
    stolen = {}
    with open("/proc/stat", encoding="ascii") as f:
        for line in f:
            name, *cols = line.split()
            if name.startswith("cpu") and name != "cpu":
                stolen[int(name[3:])] = int(cols[7]) / _TICKS_PER_S
    return stolen
