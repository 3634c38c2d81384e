#!/usr/bin/env python3
"""Digest of the encoder's output: one SHA-256 per group and a total.

A refactor that means to keep the encoding byte-identical prints the same
total before and after.  Each encoding is hashed as its DIMACS text (the
problem at k with the unit E_k; a loop-free one without the distinctness
pairs that the pipeline adds on demand), its max_var, its root literal and
its number of copy blocks; an encoding that fails is hashed as its error
message.  Under each group line the script prints two sub-digests per
engine (mono, bi, loop-free) of that group's encodings on the engine: of
those whose problem has transitions, and of the others (an encoding whose
problem fails to build among them), so a change to how transitions are
encoded shows which encodings kept their bytes; the total hashes the group
digests only.

- corpus: every `tests/data` spec x mono/bi x bsc/bmc/hcc/loop-free x
  k = 1, 2, 3, 5, 8; hcc reads the spec's history section and its
  `<spec>_history.txt` file, where they exist;
- random: seeded `random_core` and `random_sugared_capped` roots, with no
  transition and with a random core one, on mono, bi and loop-free;
- probe: the long rows and deep copies that the corpus's small bounds miss,
  in bsc mode: the metric probe at k = 20 with t = 5 and t = 8 on mono and
  bi and with t = 15 on mono (a look-back of 14 instants), the pure-past
  probe on mono at k = 40, and lamp hcc on bi at k = 10; then, at k = 5, a
  `next`^30 root on bi, a `yesterday`^30 root on mono, a bi transition
  with past content and a mono transition with `yesterday`^3 under a since
  (`NEST_PROBES`).

The output does not depend on PYTHONHASHSEED.

Usage: PYTHONPATH=src python scripts/encoding_digest.py [COUNT] [SEED]
(COUNT random draws, default 300; SEED default 1).  To compare with another
checkout, run the same script with PYTHONPATH at that checkout's src.
"""

import hashlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from gen import random_core, random_sugared_capped  # noqa: E402

from lassosat.cnf import dimacs_text, to_cnf  # noqa: E402
from lassosat.encoder import CheckProblem, encode  # noqa: E402
from lassosat.errors import LassosatError  # noqa: E402
from lassosat.formula import (  # noqa: E402
    Atom, Implies, Next, Not, Or, Since, Until, Yesterday,
)
from lassosat.pipeline import build_problem  # noqa: E402
from lassosat.specfile import load_spec, parse_spec_text  # noqa: E402
from lassosat.trace import load_history  # noqa: E402

ATOMS = ("P", "Q", "R")
# the sub-digests under each group line: per engine, with and without
# transitions
ENGINES = ("mono", "bi", "loop-free")
SHAPES = ("trans", "no-trans")

METRIC_PROBE = (
    "(declare a b)\n"
    "(property (alw (-> (-P- a) (&& (lasted (-P- b) {t}) (withinf (-P- a) {t})))))\n"
)
PAST_PROBE = (
    "(declare a b)\n"
    "(property (alw (-> (-P- a) (since (-P- a) (yesterday (-P- b))))))\n"
)

P, Q = Atom("P"), Atom("Q")


def nest(op, n, f):
    for _ in range(n):
        f = op(f)
    return f


# (name, problem) per probe built from core formulas, not from a spec
NEST_PROBES = (
    ("next30 bi root 5", CheckProblem(k=5, engine="bi", root=nest(Next, 30, P))),
    ("yesterday30 mono root 5",
     CheckProblem(k=5, engine="mono", root=nest(Yesterday, 30, P))),
    ("past transition bi 5", CheckProblem(
        k=5, engine="bi", root=Until(P, Not(Q)),
        transitions=(Implies(Yesterday(Yesterday(P)), Or((Since(Q, P), Next(Q)))),),
    )),
    ("yesterday3 under since transition mono 5", CheckProblem(
        k=5, engine="mono", root=Until(P, Q),
        transitions=(Implies(P, Since(Q, nest(Yesterday, 3, P))),),
    )),
)


def _record(make):
    """The bytes hashed for one encoding, `make()` building its problem,
    and its shape: "trans" where the problem has transitions."""
    problem = None
    try:
        problem = make()
        encoded = encode(problem)
    except LassosatError as exc:
        data = f"error {type(exc).__name__}: {exc}\n".encode()
    else:
        vm = encoded.varmap
        head = f"{vm.max_var} {vm.root_lit} {len(vm.copy_base)}\n"
        data = (head + dimacs_text(to_cnf(encoded))).encode()
    return data, SHAPES[not (problem is not None and problem.transitions)]


def _facts(spec: Path, doc):
    facts = doc.history
    path = spec.with_name(f"{spec.stem}_history.txt")
    if path.exists():
        file_facts = load_history(str(path))
        facts = file_facts if facts is None else facts.merged_with(file_facts)
    return facts


def corpus():
    for spec in sorted((ROOT / "tests" / "data").glob("*.zot")):
        try:
            doc = load_spec(str(spec))
        except LassosatError as exc:
            yield None, f"{spec.name} error {exc}\n", None
            continue
        for engine in ("mono", "bi"):
            for mode in ("bsc", "bmc", "hcc", "loop-free"):
                facts = _facts(spec, doc) if mode == "hcc" else None
                for k in (1, 2, 3, 5, 8):
                    yield ("loop-free" if mode == "loop-free" else engine,
                           f"{spec.name} {engine} {mode} {k}\n",
                           lambda: build_problem(doc, k, engine, mode, facts))


def randoms(count: int, seed: int):
    rng = random.Random(seed)
    for i in range(count):
        if i % 2:
            _, root = random_sugared_capped(rng, rng.randint(1, 4), ATOMS)
        else:
            root = random_core(rng, rng.randint(1, 4), ATOMS)
        trans = random_core(rng, rng.randint(1, 2), ATOMS)
        k = rng.choice((2, 3, 4))
        for transitions in ((), (trans,)):
            for engine in ENGINES:
                problem = CheckProblem(
                    k=k, engine="mono" if engine == "loop-free" else engine,
                    root=root, transitions=transitions, loop_free=engine == "loop-free",
                )
                yield engine, f"{i} {engine} {len(transitions)}\n", lambda: problem


def probe_cases():
    """(name, make) per probe: make() builds its problem."""
    lamp = ROOT / "tests" / "data" / "lamp.zot"
    specs = [(f"metric-t{t}", METRIC_PROBE.format(t=t), 20, engine, "bsc")
             for t in (5, 8) for engine in ("mono", "bi")]
    specs.append(("metric-t15", METRIC_PROBE.format(t=15), 20, "mono", "bsc"))
    specs.append(("past", PAST_PROBE, 40, "mono", "bsc"))
    specs.append(("lamp", lamp.read_text(encoding="utf-8"), 10, "bi", "hcc"))
    cases = []
    for name, text, k, engine, mode in specs:
        doc = parse_spec_text(text)
        facts = _facts(lamp, doc) if mode == "hcc" else None
        cases.append((f"{name} {engine} {mode} {k}",
                      lambda doc=doc, k=k, engine=engine, mode=mode, facts=facts:
                      build_problem(doc, k, engine, mode, facts)))
    cases.extend((name, lambda problem=problem: problem) for name, problem in NEST_PROBES)
    return cases


def probes():
    for name, make in probe_cases():
        problem = make()
        yield "loop-free" if problem.loop_free else problem.engine, f"{name}\n", make


def main() -> int:
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 300
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    total = hashlib.sha256()
    groups = (("corpus", corpus()), ("random", randoms(count, seed)), ("probe", probes()))
    for name, records in groups:
        # the group's digest of every record in order, and one per engine
        # and shape of its records on that engine with that shape
        h = hashlib.sha256()
        keys = [(engine, shape) for engine in ENGINES for shape in SHAPES]
        subs = {key: hashlib.sha256() for key in keys}
        counts = dict.fromkeys(keys, 0)
        for engine, label, make in records:
            data = label.encode()
            if make is not None:
                record, shape = _record(make)
                data += record
                subs[engine, shape].update(data)
                counts[engine, shape] += 1
            h.update(data)
        print(f"{name:10s} {sum(counts.values()):6d} encodings  {h.hexdigest()}")
        for key, sub in subs.items():
            print(f"  {' '.join(key):18s} {counts[key]:5d} encodings  {sub.hexdigest()}")
        total.update(h.digest())
    print(f"{'total':10s} {'':18s}{total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
