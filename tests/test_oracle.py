import random
from dataclasses import replace

import pytest

from gen import random_core, random_sugared, random_trace
from naive_eval import naive_eval
from lassosat.desugar import desugar
from lassosat.errors import EncodingError
from lassosat.formula import (
    Atom,
    Not,
    Since,
    TrueF,
    Until,
    Yesterday,
    Zeta,
    closure,
)
from lassosat.oracle import LassoWord, _eval_rows, eval_lasso, eval_lasso_batch
from lassosat.trace import LassoTrace

A, B, P, Q = Atom("A"), Atom("B"), Atom("P"), Atom("Q")


def _trace(k, engine, loop, pool=None, **vals):
    atoms = tuple(Atom(name) for name in vals)
    return LassoTrace(
        k=k, engine=engine,
        atoms=atoms,
        valuations={Atom(name): tuple(map(bool, v)) for name, v in vals.items()},
        loop_start=loop, pool_start=pool,
    )


def test_until_witness_far_out():
    # A at every position, B appears first at position 21: until true at 0
    k = 25
    a = (1,) * (k + 1)
    b = tuple(1 if t == 21 else 0 for t in range(k + 1))
    tr = _trace(k, "mono", loop=23, A=a, B=b)
    assert eval_lasso(tr, Until(A, B), 0) is True
    # and B at 0 alone suffices: reflexive until
    tr2 = _trace(4, "mono", loop=2, A=(0,) * 5, B=(1, 0, 0, 0, 0))
    assert eval_lasso(tr2, Until(A, B), 0) is True


def test_zeta_true_at_origin():
    tr = _trace(3, "mono", loop=1, Q=(0, 0, 0, 0))
    assert eval_lasso(tr, Zeta(Q), 0) is True
    assert eval_lasso(tr, Yesterday(Q), 0) is False


def test_position_validation():
    tr = _trace(3, "mono", loop=1, Q=(0, 0, 0, 0))
    with pytest.raises(EncodingError, match="outside"):
        eval_lasso(tr, Q, 4)


def test_loop_wraps_future():
    # p only at instant 1; loop at 1 means p recurs forever
    tr = _trace(3, "mono", loop=1, P=(0, 1, 0, 0))
    globally_eventually = Not(Until(TrueF(), Not(Until(TrueF(), P))))
    assert eval_lasso(tr, Until(TrueF(), P), 3) is True
    assert eval_lasso(tr, globally_eventually, 0) is True


def test_past_determined_by_prefix():
    tr = _trace(4, "mono", loop=4, P=(1, 0, 0, 0, 0))
    assert eval_lasso(tr, Since(TrueF(), P), 3) is True
    assert eval_lasso(tr, Since(Not(P), P), 4) is True  # witness at 0
    empty = _trace(4, "mono", loop=4, P=(0, 0, 0, 0, 0))
    assert eval_lasso(empty, Since(TrueF(), P), 4) is False

    # pure-past values agree with a direct finite computation
    def somp_direct(vals, j):
        return any(vals[d] for d in range(j + 1))

    for j in range(5):
        assert eval_lasso(tr, Since(TrueF(), P), j) == somp_direct(tr.valuations[P], j)


def test_bi_yesterday_wraps_into_past_loop():
    # pool at 2: position -1 is instant 2
    tr = _trace(3, "bi", loop=2, pool=2, P=(0, 0, 1, 0))
    assert eval_lasso(tr, Yesterday(P), 0) is True
    tr2 = _trace(3, "bi", loop=2, pool=2, P=(0, 0, 0, 1))
    assert eval_lasso(tr2, Yesterday(P), 0) is False


def test_oracle_agrees_with_naive_evaluator_on_random_cases():
    rng = random.Random(123)
    for _ in range(250):
        engine = rng.choice(["mono", "bi"])
        k = rng.randint(2, 5)
        f = random_core(rng, rng.randint(1, 3), ("P", "Q"))
        tr = random_trace(rng, k, engine, ("P", "Q"))
        pos = rng.randint(0, k)
        assert eval_lasso(tr, f, pos) == naive_eval(tr, f, pos), (engine, k, f)


def test_oracle_agrees_with_naive_on_desugared_metric_formulas():
    rng = random.Random(124)
    for _ in range(120):
        engine = rng.choice(["mono", "bi"])
        k = rng.randint(2, 5)
        core = desugar(random_sugared(rng, rng.randint(1, 3), ("P", "Q")))
        tr = random_trace(rng, k, engine, ("P", "Q"))
        pos = rng.randint(0, k)
        assert eval_lasso(tr, core, pos) == naive_eval(tr, core, pos)


def test_stability_rotating_the_loop_by_one_period():
    """After stabilization, window values repeat with the loop period."""
    rng = random.Random(125)
    for _ in range(60):
        engine = rng.choice(["mono", "bi"])
        k = rng.randint(2, 4)
        f = random_core(rng, rng.randint(1, 3), ("P", "Q"))
        tr = random_trace(rng, k, engine, ("P", "Q"))
        members = closure([f])
        rows, _ = _eval_rows(LassoWord.from_trace(tr), members, len(members) + 2)
        assert rows.keys() == set(members)
        period = tr.k - tr.loop_start + 1
        length = len(rows[f])
        for g, row in rows.items():
            for q in (length - 2 * period, length - period - 1):
                assert row[q] == row[q + period], (engine, f, g)


def test_batch_bit_b_is_the_scalar_truth_on_trace_b():
    """Traces of one lasso shape packed into one word, trace b on bit b of
    every atom row: bit b of the batch truth is eval_lasso on trace b, and
    no bit above the batch is set."""
    rng = random.Random(126)
    for _ in range(150):
        engine = rng.choice(["mono", "bi"])
        k = rng.randint(2, 5)
        first = random_trace(rng, k, engine, ("P", "Q"))
        traces = [first] + [
            replace(random_trace(rng, k, engine, ("P", "Q")),
                    loop_start=first.loop_start, pool_start=first.pool_start)
            for _ in range(rng.randint(0, 40))
        ]
        rows = {
            atom: [sum(tr.valuations[atom][t] << b for b, tr in enumerate(traces))
                   for t in range(k + 1)]
            for atom in (P, Q)
        }
        word = LassoWord(k, engine, first.loop_start, first.pool_start, rows, len(traces))
        f = random_core(rng, rng.randint(1, 4), ("P", "Q"))
        pos = rng.randint(0, k)
        got = eval_lasso_batch(word, f, pos)
        assert 0 <= got < 1 << len(traces), (engine, k, f)
        want = [eval_lasso(tr, f, pos) for tr in traces]
        assert [bool(got >> b & 1) for b in range(len(traces))] == want, (engine, k, f)
