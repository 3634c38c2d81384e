"""The benchmark's workloads: their jobs, known answers and seeded specs.

A workload seed permutes the `declare` entries of every spec and the job
order.  Plain atoms are numbered in `declare` order, so where a spec
declares several of them (lamp, the metric and pure-past probes) the seed
renumbers the solver variables and changes the solver's search path.  It
never changes the size of an encoding or a verdict.

The item and array value lists stay in corpus order on purpose: they number
the mutex3 state atoms, and renumbering those moved one mutex3 k=30 UNSAT
proof between 2.4 and 5.4 s (median of five runs per order), which would
make bmc-mutex's timings depend on the seed more than on the code.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

CORPUS = Path(__file__).resolve().parent / "corpus"
LAMP_HISTORY = CORPUS / "lamp_history.txt"

# cycle counter for bound-search: CYCLE_VALUES states in a fixed cycle plus
# one free atom, so the longest loop-free path visits 2 * CYCLE_VALUES
# states and the completeness bound is 2 * CYCLE_VALUES
CYCLE_VALUES = 16


@dataclass(frozen=True)
class Job:
    name: str
    spec: str  # key of SPECS
    k: Optional[int]  # None for find-bound
    engine: str
    mode: str  # bsc | bmc | hcc | loop-free | find-bound
    expect: Union[str, int]  # verdict, or the completeness bound
    t: Optional[int] = None  # metric offset of the spec, where it has one
    history: bool = False  # hcc: constrain by the lamp history


def _order(rng: random.Random, entries) -> str:
    entries = list(entries)
    rng.shuffle(entries)
    return " ".join(entries)


def _template(name: str, entries):
    def make(rng: random.Random) -> str:
        text = (CORPUS / name).read_text(encoding="utf-8")
        return string.Template(text).substitute(declare=_order(rng, entries))
    return make


def _metric(t: int):
    def make(rng: random.Random) -> str:
        return (
            f"(declare {_order(rng, 'ab')})\n"
            f"(property (alw (-> (-P- a) (&& (lasted (-P- b) {t}) (withinf (-P- a) {t})))))\n"
        )
    return make


def _past(rng: random.Random) -> str:
    return (
        f"(declare {_order(rng, 'ab')})\n"
        "(property (alw (-> (-P- a) (since (-P- a) (yesterday (-P- b))))))\n"
    )


def _cycle(rng: random.Random) -> str:
    n = CYCLE_VALUES
    steps = " ".join(f"(-> (st= {i}) (next (st= {(i + 1) % n})))" for i in range(n))
    return (
        f"(define-item st ({' '.join(str(i) for i in range(n))}))\n"
        "(declare p)\n"
        "(init (st= 0))\n"
        f"(trans (&& {steps}))\n"
    )


def _cycle_property(rng: random.Random) -> str:
    # violated: p is free, so the counter can reach its last value with p set
    last = CYCLE_VALUES - 1
    return _cycle(rng) + f"(property (alw (!! (&& (st= {last}) (-P- p)))))\n"


_MUTEX_DECLARE = [f"(state= {p} {s})" for s in "ntc" for p in "123"] + [
    f"(turn= {p})" for p in "123"
]

SPECS = {
    "mutex3": _template("mutex3.zot.tmpl", _MUTEX_DECLARE),
    "mutex3_broken": lambda rng: (CORPUS / "mutex3_broken.zot").read_text(encoding="utf-8"),
    "lamp": _template("lamp.zot.tmpl", ["on", "off", "l"]),
    "metric-t5": _metric(5),
    "metric-t8": _metric(8),
    "metric-t10": _metric(10),
    "metric-t15": _metric(15),
    "past": _past,
    "cycle16": _cycle,
    "cycle16-prop": _cycle_property,
}


def spec_text(key: str, seed: int) -> str:
    # a string seed is hashed with SHA-512, independent of PYTHONHASHSEED
    return SPECS[key](random.Random(f"{seed}:{key}"))


def _metric_job(t: int, engine: str) -> Job:
    return Job(f"metric-t{t}-{engine}-k20", f"metric-t{t}", 20, engine, "bsc", "SAT", t=t)


METRIC_T5 = _metric_job(5, "mono")
METRIC_T15 = _metric_job(15, "mono")
PAST_K40 = Job("past-bsc-mono-k40", "past", 40, "mono", "bsc", "SAT")
PAST_K80 = Job("past-bsc-mono-k80", "past", 80, "mono", "bsc", "SAT")

WORKLOADS = {
    "bmc-mutex": (
        Job("mutex3-bmc-k10", "mutex3", 10, "mono", "bmc", "UNSAT"),
        Job("mutex3-bmc-k20", "mutex3", 20, "mono", "bmc", "UNSAT"),
        Job("mutex3-bmc-k30", "mutex3", 30, "mono", "bmc", "UNSAT"),
        Job("mutex3_broken-bmc-k20", "mutex3_broken", 20, "mono", "bmc", "SAT"),
    ),
    "metric-lasso": (
        METRIC_T5,
        _metric_job(10, "mono"),
        METRIC_T15,
        _metric_job(8, "bi"),
        Job("lamp-bsc-mono-k20", "lamp", 20, "mono", "bsc", "SAT"),
        Job("lamp-bsc-bi-k40", "lamp", 40, "bi", "bsc", "SAT"),
        PAST_K40,
        PAST_K80,
        Job("lamp-hcc-bi-k10", "lamp", 10, "bi", "hcc", "SAT", history=True),
    ),
    # find the completeness bound, then model-check at it, where a verdict
    # is conclusive; the counterexample also takes the decode path
    "bound-search": (
        Job("cycle16-find-bound", "cycle16", None, "mono", "find-bound", 2 * CYCLE_VALUES),
        Job("cycle16-bmc-k32", "cycle16-prop", 2 * CYCLE_VALUES, "mono", "bmc", "SAT"),
    ),
}

# The log-log clause slopes: pure-past probe from k = 40 to 80, metric probe
# from t = 5 to 15.
SLOPE_K = (PAST_K40, PAST_K80)
SLOPE_T = (METRIC_T5, METRIC_T15)

# The job run under a second workload seed to check that the seed renumbers
# variables but changes no verdict and no size.  Only metric-lasso has specs
# whose numbering the seed changes.
SEED_CHECK = {"metric-lasso": PAST_K40}


def jobs_in_order(workload: str, seed: int):
    jobs = list(WORKLOADS[workload])
    random.Random(f"{seed}:order").shuffle(jobs)
    return jobs


def other_seed(key: str, seed: int) -> int:
    """The next seed whose text for spec `key` differs from `seed`'s."""
    text = spec_text(key, seed)
    other = seed + 1
    while spec_text(key, other) == text:
        other += 1
    return other
