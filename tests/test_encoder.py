import gc
import hashlib
import os
import random
import subprocess
import sys
import weakref
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

from brute import (
    accepted,
    accepts_loop_free,
    brute_force_loop_free,
    brute_force_sat,
    finite_values,
    trace_from_index,
)
from gen import random_core, random_sugared_capped, random_trace
from lassosat.cnf import dimacs_text, to_cnf
from lassosat.desugar import desugar
from lassosat import encoder as encoder_module
from lassosat.encoder import CheckProblem, encode
from lassosat.errors import BoundSearchError, EncodingError
from lassosat.formula import (
    Alw,
    Alwf,
    And,
    Atom,
    FalseF,
    Iff,
    Lasts,
    Next,
    Not,
    Or,
    Release,
    Since,
    Somf,
    Trigger,
    TrueF,
    Until,
    WithinF,
    Yesterday,
    Zeta,
    children,
    closure,
)
from lassosat.oracle import eval_lasso
from lassosat.pipeline import (
    RunConfig,
    build_problem,
    check_trace_against_root,
    find_bound,
    run,
    solve_window,
    window_solver,
)
from lassosat.pretty import formula_text
from lassosat.sat_embedded import solve_embedded
from lassosat.specfile import load_spec, parse_spec_text
from lassosat.trace import PartialHistory, decode, load_history

P, Q = Atom("P"), Atom("Q")


def _solve(problem):
    encoded = encode(problem)
    if problem.loop_free:  # the all-different constraint is added on demand
        return encoded, solve_window(encoded)
    return encoded, solve_embedded(to_cnf(encoded))


def test_a_lasso_encoder_is_freed_without_the_cycle_collector(monkeypatch):
    """No reference cycle keeps an encoder, and its gate memo, alive after
    encode returns: the solve that follows runs with the collector off."""
    made = []
    init = encoder_module._Encoder.__init__

    def record(self, problem):
        init(self, problem)
        made.append(weakref.ref(self))

    monkeypatch.setattr(encoder_module._Encoder, "__init__", record)
    collecting = gc.isenabled()
    gc.disable()
    try:
        for engine in ("mono", "bi"):
            encode(CheckProblem(k=4, engine=engine, root=Release(Yesterday(P), Next(Q))))
            assert made.pop()() is None, engine
    finally:
        if collecting:
            gc.enable()


def test_yesterday_idiom_pins_init_at_zero():
    encoded, result = _solve(CheckProblem(k=3, engine="mono", root=Yesterday(P)))
    assert result.verdict == "SAT"
    trace = decode(result, encoded.varmap)
    assert trace.holds(P, 0)


def test_zeta_true_at_origin_irrespective_of_operand():
    # assert at instant 0 through the yesterday idiom
    encoded, result = _solve(
        CheckProblem(k=3, engine="mono", root=Yesterday(And((Zeta(P), Not(P)))))
    )
    assert result.verdict == "SAT"
    _, result = _solve(
        CheckProblem(k=3, engine="mono", root=Yesterday(Not(Zeta(P))))
    )
    assert result.verdict == "UNSAT"


def test_yesterday_equals_zeta_everywhere_in_bi():
    f = Not(Iff(Yesterday(P), Zeta(P)))
    _, result = _solve(CheckProblem(k=4, engine="bi", root=f))
    assert result.verdict == "UNSAT"


def test_bi_alw_forces_atom_at_every_instant():
    from lassosat.desugar import desugar
    from lassosat.formula import Alw

    alw_p = desugar(Alw(P))
    encoded, result = _solve(CheckProblem(k=4, engine="bi", root=alw_p))
    assert result.verdict == "SAT"
    trace = decode(result, encoded.varmap)
    assert all(trace.holds(P, t) for t in range(5))
    # and pinning any instant false makes it unsatisfiable
    pins = PartialHistory(((3, P, False),))
    _, result = _solve(
        CheckProblem(k=4, engine="bi", root=alw_p, facts=pins, atoms=(P,))
    )
    assert result.verdict == "UNSAT"


def test_small_bounds_rejected():
    with pytest.raises(EncodingError, match="k >= 2"):
        encode(CheckProblem(k=1, engine="mono", root=P))
    with pytest.raises(EncodingError, match="k >= 2"):
        encode(CheckProblem(k=1, engine="bi", root=P))
    with pytest.raises(EncodingError, match="loop-free mode needs k >= 1"):
        encode(CheckProblem(k=0, engine="mono", root=P, loop_free=True))
    with pytest.raises(EncodingError, match="unknown engine"):
        encode(CheckProblem(k=3, engine="tri", root=P))


def test_exactly_one_selector_in_models():
    encoded, result = _solve(CheckProblem(k=4, engine="bi", root=Next(P)))
    assert result.verdict == "SAT"
    model = result.model
    assert sum(model[v] for v in encoded.varmap.loop_selectors.values()) == 1
    assert sum(model[v] for v in encoded.varmap.pool_selectors.values()) == 1


def _grown(problem, k0):
    """The encoding of `problem` grown from bound k0 to problem.k."""
    return encode(problem, encode(replace(problem, k=k0)))


# on the bi engine at instant 0: a pool of 3 or 4 instants, longer than the
# first bound of a grown encoding
LONG_POOL = And((Yesterday(Q), Not(Q), Next(Not(Q)), Next(Next(Not(Q)))))


def _grown_agrees(root, engine):
    """One encoding of `root` grown over k = 2, 3, 4 on one live solver,
    each bound solved under the assumption E_k, gives the enumeration's
    verdict at each bound, and its models satisfy the root."""
    pos = 1 if engine == "mono" else 0
    solve, grown = window_solver(), None
    for k in range(2, 5):
        grown = encode(CheckProblem(k=k, engine=engine, root=root), grown)
        result = solve(grown, None)
        expected = brute_force_sat(root, k, engine, pos)[0]
        assert (result.verdict == "SAT") == expected, (engine, k, root)
        if expected:
            assert eval_lasso(decode(result, grown.varmap), root, pos), (engine, k, root)


def test_exactness_small_scale_mono_and_bi():
    """Verdicts equal brute-force lasso enumeration for |AP| <= 2, k <= 4:
    of a fresh encoding at k, and of one encoding grown over k = 2, 3, 4.
    On the bi engine the grown encoding also decides the formula with a
    pool that only the later bounds hold."""
    rng = random.Random(77)
    for n in range(120):
        engine = "mono" if n % 2 == 0 else "bi"
        k = rng.randint(2, 4)
        f = random_core(rng, rng.randint(1, 3), ("P", "Q"))
        pos = 1 if engine == "mono" else 0
        _, result = _solve(CheckProblem(k=k, engine=engine, root=f))
        expected, _ = brute_force_sat(f, k, engine, pos)
        assert (result.verdict == "SAT") == expected, (engine, k, f)
        _grown_agrees(f, engine)
        if engine == "bi":
            _grown_agrees(And((LONG_POOL, f)), engine)
    # a pool pass reads X Q at instant p - 1, past the first bound's last
    # instant 2 where p is 3 or 4
    _grown_agrees(And((LONG_POOL, Yesterday(Yesterday(Next(Q))))), "bi")


def test_a_pool_pass_reads_the_next_instant_only_off_the_pool_start():
    """On a pool pass, the future entries at the last pool position k read
    the pool start's previous pass where P_k holds, and instant k+1 once it
    enters where P_k does not.  A bi word whose pool ends at 2 and whose Q
    differs at instants 0 and 3 is SAT at k = 3, also grown from k = 2,
    where a successor tied to instant 3 without the guard forces Q(3) =
    Q(0)."""
    root = And((Yesterday(Next(Q)), Q, Next(Next(Next(Not(Q))))))
    problem = CheckProblem(k=3, engine="bi", root=root, facts=PartialHistory(pool_at=2))
    for encoded in (encode(problem), _grown(problem, 2)):
        result = solve_embedded(to_cnf(encoded))
        assert result.verdict == "SAT"
        trace = decode(result, encoded.varmap)
        assert trace.pool_start == 2 and eval_lasso(trace, root, 0)


def test_every_loop_and_pool_position_matches_brute_force():
    """Each loop position (and pool position, on the bi engine) pinned
    through the history markers at k = 4, for random cores over 2 atoms
    (`_shapes_agree`)."""
    rng = random.Random(81)
    for n in range(60):
        engine = "mono" if n % 2 == 0 else "bi"
        root = random_core(rng, 3, ("P", "Q"))
        tr = random_core(rng, 2, ("P", "Q"))
        _shapes_agree(root, (tr,), engine, 4, rng)


def _reference(root, transitions, engine):
    """(assertion instant, formula) that the enumeration decides: each
    transition holds at every instant of the word, G tr, plus H tr on the
    bi-infinite word; mono asserts the root at instant 1."""
    if engine == "mono":
        every = [Yesterday(Release(FalseF(), tr)) for tr in transitions]
    else:
        every = [And((Release(FalseF(), tr), Trigger(FalseF(), tr))) for tr in transitions]
    return (1 if engine == "mono" else 0), (And((root, *every)) if every else root)


def _every_valuation_agrees(problem, reference, pos, loop, pool):
    """Every valuation of the atoms at bound problem.k, pinned in full
    with the loop (and pool) position, is SAT exactly where the
    enumeration accepts it."""
    k, engine = problem.k, problem.engine
    hits = accepted(reference, k, engine, pos, loop, pool)
    for index, want in enumerate(hits):
        word = trace_from_index(reference, k, engine, (index, loop, pool))
        facts = tuple((t, a, word.valuations[a][t]) for a in word.atoms for t in range(k + 1))
        _, result = _solve(replace(problem, atoms=word.atoms,
                                   facts=PartialHistory(facts, loop_at=loop, pool_at=pool)))
        assert (result.verdict == "SAT") == want, (loop, pool, index)


def _shapes_agree(root, transitions, engine, k, rng):
    """The traversal copies are defined at every instant, so their values
    before the loop start (or after the pool start) are don't-cares that
    must never decide a verdict; a transition, asserted on every pass,
    reads them too.  Per lasso shape at bound k, the free verdict equals
    the enumeration of that shape, and one accepted and one rejected
    valuation of it, pinned in full, are SAT and UNSAT.  Where the markers
    fit a smaller bound k0, the encoding grown from k0 to k gives the free
    verdict too, and with the instants 0..k0 of each of those valuations
    pinned it is SAT exactly when some accepted valuation agrees with it
    there.
    """
    pos, reference = _reference(root, transitions, engine)
    pools = range(1, k + 1) if engine == "bi" else (None,)
    for loop in range(1, k + 1):
        for pool in pools:
            shape = (engine, loop, pool, formula_text(reference))
            hits = accepted(reference, k, engine, pos, loop, pool)
            k0 = max(2, loop, pool or 0)
            free = CheckProblem(k=k, engine=engine, root=root, transitions=transitions,
                                facts=PartialHistory(loop_at=loop, pool_at=pool))
            encodings = [encode(free)] + ([_grown(free, k0)] if k0 < k else [])
            for encoded in encodings:
                result = solve_embedded(to_cnf(encoded))
                assert (result.verdict == "SAT") == any(hits), shape
                if any(hits):
                    trace = decode(result, encoded.varmap)
                    assert (trace.loop_start, trace.pool_start) == (loop, pool), shape
                    assert eval_lasso(trace, reference, pos), shape
            for want in (True, False):
                indices = [i for i, hit in enumerate(hits) if hit == want]
                if not indices:
                    continue
                index = rng.choice(indices)
                word = trace_from_index(reference, k, engine, (index, loop, pool))
                facts = tuple(
                    (t, a, word.valuations[a][t]) for a in word.atoms for t in range(k + 1)
                )
                pinned = replace(free, atoms=word.atoms,
                                 facts=PartialHistory(facts, loop_at=loop, pool_at=pool))
                _, result = _solve(pinned)
                assert (result.verdict == "SAT") == want, shape + (index,)
                if k0 == k:
                    continue
                # the valuation bits of the instants 0..k0, as trace_from_index lays them out
                mask = sum(1 << (a * (k + 1) + t)
                           for a in range(len(word.atoms)) for t in range(k0 + 1))
                agree = any(hit and i & mask == index & mask for i, hit in enumerate(hits))
                prefix = replace(pinned, facts=PartialHistory(
                    tuple(fact for fact in facts if fact[0] <= k0), loop_at=loop, pool_at=pool,
                ))
                result = solve_embedded(to_cnf(_grown(prefix, k0)))
                assert (result.verdict == "SAT") == agree, shape + (index, k0)


def _nest(op, n, f):
    for _ in range(n):
        f = op(f)
    return f


@pytest.mark.parametrize("engine,n", [
    ("mono", 1), ("mono", 2), ("mono", 3), ("bi", 1), ("bi", 3), ("bi", 5),
])
def test_copy_caps_reach_every_pass_a_shift_chain_reads(engine, n):
    """Every valuation of Q at k = 3, pinned in full with each loop (and
    pool) position, is SAT exactly where the enumeration accepts it.

    mono: G(zeta^n Q) reads Q(m - n) at every position m >= 1.  Around a
    one-instant loop each loop pass reads one instant more, and pass n is
    the first to read Q(k): a look-back T below n (without the unrolling,
    a loop-pass cap below n) accepts the word that leaves Q(k) false.  The
    chain has no since or trigger, so it is unrolled by T = n and keeps no
    loop pass.  bi: H(X^n Q) reads Q at every
    position <= n.  Around a two-instant pool each backward pass reads two
    instants more, so pass ceil(n/2) is the first to read Q(0), and a
    backward cap of min(n, 1) fails at n = 3, min(n, 2) at n = 5.
    """
    k = 3
    if engine == "mono":
        pos, root, pools = 1, Release(FalseF(), _nest(Zeta, n, Q)), (None,)
    else:
        pos, root, pools = 0, Trigger(FalseF(), _nest(Next, n, Q)), range(1, k + 1)
    problem = CheckProblem(k=k, engine=engine, root=root)
    for loop in range(1, k + 1):
        for pool in pools:
            _every_valuation_agrees(problem, root, pos, loop, pool)


def _models(problem, atoms, loop, pool):
    """The valuation indices (as `brute.trace_from_index` lays them out)
    of the models of `problem` with the loop and pool pinned, found by
    blocking each model's atom values at the instants 0..k in turn."""
    k = problem.k
    encoded = encode(replace(problem, facts=PartialHistory(loop_at=loop, pool_at=pool)))
    inst = to_cnf(encoded)
    lits = [encoded.varmap.lit(a, t) for a in atoms for t in range(k + 1)]
    found = set()
    while True:
        result = solve_embedded(inst)
        if result.verdict == "UNSAT":
            return found
        values = [result.model[x] for x in lits]
        found.add(sum(1 << i for i, value in enumerate(values) if value))
        inst.clauses.append([-x if value else x for x, value in zip(lits, values)])


@pytest.mark.parametrize("n", range(2, 7))
def test_a_next_chain_under_historically_keeps_no_pool_pass(n):
    """H(X^n Q) reads Q at every instant up to n, so with !Q it has no
    model.  The chain has no until or release, so it reads ahead n instants:
    the word is unrolled by T' = n before instant 0 and the chain keeps no
    pool pass, where a cap below its future depth once accepted words that
    leave Q false off the pinned instants.  For k = 3..5, which includes
    bounds at and below T', every loop and pool position gives exactly the
    valuations that the enumeration accepts, with !Q and without it."""
    chain = _nest(Next, n, Q)
    for root in (Trigger(FalseF(), chain), And((Trigger(FalseF(), chain), Not(Q)))):
        for k in range(3, 6):
            problem = CheckProblem(k=k, engine="bi", root=root)
            encoded = encode(problem)
            assert encoded.varmap.lookahead == n and encoded.encoder.caps[chain] == (0, 0)
            for loop in range(1, k + 1):
                for pool in range(1, k + 1):
                    hits = accepted(root, k, "bi", 0, loop, pool)
                    want = {index for index, hit in enumerate(hits) if hit}
                    assert _models(problem, [Q], loop, pool) == want, (n, k, loop, pool)


Y3Q = _nest(Yesterday, 3, Q)
# a past node free of since and trigger that reads 3 instants back, under
# alw, in a transition, and under a since; (root, transitions, since)
LOOKBACK_CASES = {
    "alw": (desugar(Alw(Iff(P, Y3Q))), (), None),
    "transition": (Until(TrueF(), P), (Iff(P, Y3Q),), None),
    "since": (Release(FalseF(), Iff(P, Since(Q, Y3Q))), (), Since(Q, Y3Q)),
}


@pytest.mark.parametrize("engine", ["mono", "bi"])
@pytest.mark.parametrize("case", sorted(LOOKBACK_CASES))
def test_lookback_unrolling_matches_brute_force(engine, case):
    """A node read forward that reads back at most T instants, with no
    since or trigger below it, takes the same value on every loop pass once
    the word is unrolled to k+T instants whose last T repeat the T before
    the loop start; it keeps no loop pass, and a since above it keeps one.
    At k = 3 with T = 3 every loop is 1 to 3 instants long, so the replica
    instants wrap through loops shorter than T; every loop and pool
    position agrees with the enumeration (`_shapes_agree`), and on the
    loops of 1 and 2 instants so does every valuation."""
    root, transitions, since = LOOKBACK_CASES[case]
    problem = CheckProblem(k=3, engine=engine, root=root, transitions=transitions)
    encoded = encode(problem)
    assert encoded.varmap.lookback == 3
    assert encoded.encoder.caps[Y3Q][0] == 0
    if since is not None:  # its past depth is 4, its pass depth 1
        assert encoded.encoder.caps[since][0] == 1
    _shapes_agree(root, transitions, engine, 3, random.Random(84))
    pos, reference = _reference(root, transitions, engine)
    for loop in (2, 3):
        _every_valuation_agrees(problem, reference, pos, loop, 1 if engine == "bi" else None)


@pytest.mark.parametrize("engine", ["mono", "bi"])
def test_a_grown_lasso_encoding_keeps_its_lookback(engine):
    """An encoding with T = 3 grown over k = 2..8 on one live solver, each
    bound solved under the assumption E_k, keeps T and gives the verdict of
    the enumeration and of a fresh solve at each bound; its models decode
    to a trace of the root whose loop start lies within the bound.  The
    root's words have period 6, so it is UNSAT up to k = 5."""
    period6 = desugar(Alw(Iff(P, _nest(Yesterday, 3, Not(P)))))
    root = And((period6, Until(TrueF(), And((P, Yesterday(P))))))
    pos = 1 if engine == "mono" else 0
    solve, grown, verdicts = window_solver(), None, []
    for k in range(2, 9):
        problem = CheckProblem(k=k, engine=engine, root=root)
        grown = encode(problem, grown)
        assert grown.varmap.lookback == grown.encoder.lookback == 3
        result = solve(grown, None)
        assert result.verdict == solve_embedded(to_cnf(encode(problem))).verdict, k
        assert (result.verdict == "SAT") == brute_force_sat(root, k, engine, pos)[0], k
        if result.verdict == "SAT":
            trace = decode(result, grown.varmap)
            assert trace.k == k and 1 <= trace.loop_start <= k
            assert eval_lasso(trace, root, pos), k
        verdicts.append(result.verdict)
    assert verdicts == ["UNSAT"] * 4 + ["SAT"] * 3, verdicts


def _depth(f, root=None):
    """Future nesting depth of f, as the encoder's closure loop computes it."""
    encoded = encode(CheckProblem(k=2, engine="bi", root=f if root is None else root,
                                  atoms=(P, Q)))
    return encoded.encoder.depth[f]


def _copy_rows(f, engine="bi", **kw):
    """(pool passes, loop passes) of f: its copy rows above the primary row
    at k = 3, and the encoding's look-back T."""
    vm = encode(CheckProblem(k=3, engine=engine, **kw)).varmap
    return (len(vm.lrows[f]) - 1, len(vm.rrows[f]) - 1), vm.lookback


def test_nesting_depths_set_the_copy_rows_and_the_lookahead():
    assert _depth(P) == 0
    assert _depth(Q, root=P) == 0  # a registry atom no formula mentions
    # a transition holds on every pass, so its copy rows reach its pass
    # depths, which count only since and trigger nesting (until and release
    # on the pool side) and what lies above it: a past node free of them
    # reads back a bounded number of instants, T, and takes the same value
    # on every loop pass, and a future node free of them reads ahead T'
    # instants and takes the same value on every pool pass
    for f, depth, rows, lookback in (
        (Until(P, Yesterday(Q)), 1, (1, 0), 1),
        (Next(Next(Since(P, Q))), 2, (0, 1), 0),
        (Yesterday(Since(P, Yesterday(Yesterday(Q)))), 0, (0, 2), 2),
    ):
        assert _depth(f) == depth
        assert _copy_rows(f, transitions=(f,)) == (rows, lookback)
    # in a loop-free window a transition of future depth n holds at instant
    # s once instant s + n has entered
    n, R = 6, Atom("R")
    tr = _nest(Next, n, P)
    problem = CheckProblem(k=1, engine="mono", transitions=(tr,), atoms=(P, Q, R),
                           loop_free=True)
    encoded = None
    for k in range(1, n + 3):
        encoded = encode(replace(problem, k=k), encoded)
        units = [t for t in range(k + 1) if [encoded.varmap.lit(tr, t)] in encoded.cnf.clauses]
        assert units == list(range(max(0, k - n + 1))), k


@pytest.mark.parametrize("engine,shift,reader", [
    ("mono", Zeta, Release), ("bi", Zeta, Release), ("bi", Next, Trigger),
])
def test_copy_rows_follow_their_readers(engine, shift, reader):
    """A deeper loop pass is read only through a future entry's wrap at k,
    a deeper pool pass only through a past entry's wrap at instant 0, and a
    transition holds on every pass.  So a past nest as the root has no loop
    pass.  Under Release or as a transition it is read forward, and since
    it reads back 3 instants and holds no since or trigger, the word is
    unrolled by T = 3 instead of giving it a loop pass per link.  The bi
    engine mirrors this for a future nest: read back, under Trigger or as a
    transition, it reads ahead 3 instants and holds no until or release, so
    the word is unrolled by T' = 3 before instant 0 instead of giving it a
    pool pass per link."""
    f = _nest(shift, 3, Q)
    if shift is Next:  # the look-ahead T' in place of the look-back
        for kw, ahead in ((dict(root=f), 0), (dict(root=reader(FalseF(), f)), 3),
                          (dict(transitions=(f,)), 3)):
            assert _copy_rows(f, engine, **kw) == ((0, 0), 0)
            assert encode(CheckProblem(k=3, engine=engine, **kw)).varmap.lookahead == ahead
        return
    assert _copy_rows(f, engine, root=f) == ((0, 0), 0)
    assert _copy_rows(f, engine, root=reader(FalseF(), f)) == ((0, 0), 3)
    assert _copy_rows(f, engine, transitions=(f,)) == ((0, 0), 3)


@pytest.mark.parametrize("engine,shift,n", [("bi", Next, 3000), ("mono", Yesterday, 1000)])
def test_deep_shift_nests_at_the_root_encode_in_linear_size(engine, shift, n):
    """A shift nest at the root has no reader of its other family's passes,
    so it takes no copy rows and its clauses grow linearly in n, where the
    copies up to each link's depth would take about n^2 / 2 rows.  On mono
    the nest is asserted at instant 1, where yesterday^n is false."""
    sizes = []
    for m in (n // 2, n):
        root = _nest(shift, m, P)
        encoded = encode(CheckProblem(k=5, engine=engine, root=root))
        vm = encoded.varmap
        assert all(len(rows) == 1 for rows in (*vm.rrows.values(), *vm.lrows.values()))
        inst = to_cnf(encoded)
        sizes.append(len(inst.clauses))
    assert sizes[1] <= 2.2 * sizes[0], sizes
    result = solve_embedded(inst)
    assert result.verdict == ("SAT" if engine == "bi" else "UNSAT")
    if engine == "bi":
        assert eval_lasso(decode(result, encoded.varmap), root, 0)


def test_mutex_property_depth_regression(data_dir):
    # frozen after first implementation: som/alw wraps the somf layer in
    # zeta/trigger towards the past and next/release towards the future
    doc = load_spec(data_dir / "mutex3.zot")
    core = desugar(Not(doc.property), doc.declarations)
    past = {}
    for g in closure([core]):
        below = max((past[c] for c in children(g)), default=0)
        past[g] = below + isinstance(g, (Yesterday, Zeta, Since, Trigger))
    assert (_depth(core), past[core]) == (4, 2)


@pytest.mark.parametrize("spec", ["mutex3.zot", "mutex3_broken.zot"])
def test_mutex3_bmc_grown_on_one_live_solver_matches_fresh_solves(data_dir, spec):
    """mutex3 BMC grown over k = 2..12 into one live solver, each bound
    solved under the assumption E_k, gives the verdict of a fresh solve of
    that bound; a counterexample decodes to a trace of the negated property."""
    problem = build_problem(load_spec(data_dir / spec), 2, "mono", "bmc")
    solve, grown, verdicts = window_solver(), None, []
    for k in range(2, 13):
        at_k = replace(problem, k=k)
        grown = encode(at_k, grown)
        result = solve(grown, None)
        assert result.verdict == solve_embedded(to_cnf(encode(at_k))).verdict, k
        if result.verdict == "SAT":
            assert check_trace_against_root(at_k, decode(result, grown.varmap)), k
        verdicts.append(result.verdict)
    assert ("SAT" in verdicts) == (spec == "mutex3_broken.zot"), verdicts


def test_a_5000_link_chain_encodes_under_the_default_recursion_limit():
    chain = _nest(Next, 5000, P)
    vm = encode(CheckProblem(k=2, engine="mono", root=chain)).varmap
    assert len(vm.closure) == 5001 and len(vm.rrows[chain]) == 1
    # as a loop-free transition its lookahead does not fit a short window
    free = encode(CheckProblem(k=2, engine="mono", transitions=(chain,), atoms=(P,),
                               loop_free=True))
    assert not any(len(c) == 1 and abs(c[0]) == abs(free.varmap.lit(chain, 0))
                   for c in free.cnf.clauses)


def _clause_count(spec, k, engine):
    return len(to_cnf(encode(build_problem(load_spec(spec), k, engine, "bsc"))).clauses)


@pytest.mark.parametrize("spec,engine,k", [("past.zot", "mono", 40), ("lamp.zot", "bi", 20)])
def test_clauses_grow_linearly_in_k(data_dir, tmp_path, spec, engine, k):
    """Doubling k at most a little more than doubles the clauses: the
    pure-past probe covers the future loop's copies and selectors, lamp on
    the bi engine the past loop's."""
    if spec == "past.zot":
        path = tmp_path / spec
        path.write_text(
            "(declare a b)\n"
            "(property (alw (-> (-P- a) (since (-P- a) (yesterday (-P- b))))))\n"
        )
    else:
        path = data_dir / spec
    small, large = _clause_count(path, k, engine), _clause_count(path, 2 * k, engine)
    assert large <= 2.2 * small, (small, large)


def _metric_clauses(tmp_path, t, engine):
    """The clauses of the metric probe at k = 20, at offsets t and 2t."""
    sizes = []
    for offset in (t, 2 * t):
        path = tmp_path / f"metric{offset}.zot"
        path.write_text(
            "(declare a b)\n(property (alw (-> (-P- a) "
            f"(&& (lasted (-P- b) {offset}) (withinf (-P- a) {offset})))))\n"
        )
        sizes.append(_clause_count(path, 20, engine))
    return sizes


@pytest.mark.parametrize("t", [5, 8])
def test_clauses_grow_linearly_in_t(tmp_path, t):
    """Doubling the metric offset t at k = 20 at most a little more than
    doubles the clauses of the metric probe on mono.  Its lasted chain
    reads back t-1 instants, so the word runs t-1 instants further instead
    of giving link d of the chain d loop passes, which grew with t^2."""
    sizes = _metric_clauses(tmp_path, t, "mono")
    assert sizes[1] <= 2.2 * sizes[0], sizes


@pytest.mark.parametrize("t", [5, 8])
def test_bi_clauses_grow_linearly_in_t(tmp_path, t):
    """The same on the bi engine, where the withinf chain under alw's
    historically part reads ahead t-1 instants: the word also runs t-1
    instants before instant 0 instead of giving link d of the chain d pool
    passes."""
    sizes = _metric_clauses(tmp_path, t, "bi")
    assert sizes[1] <= 2.2 * sizes[0], sizes


def test_soundness_random_sample():
    """Every SAT answer decodes to a trace the oracle accepts."""
    rng = random.Random(78)
    for _ in range(70):
        engine = rng.choice(["mono", "bi"])
        k = rng.randint(2, 6)
        _, core = random_sugared_capped(rng, rng.randint(1, 4), ("P", "Q", "R"))
        encoded, result = _solve(CheckProblem(k=k, engine=engine, root=core))
        if result.verdict == "SAT":
            trace = decode(result, encoded.varmap)
            pos = 1 if engine == "mono" else 0
            assert eval_lasso(trace, core, pos), (engine, k, core)


def test_bounded_completeness_via_history_pinning():
    """An oracle-accepted trace, pinned as a total history, stays SAT."""
    rng = random.Random(79)
    accepted = 0
    while accepted < 40:
        engine = rng.choice(["mono", "bi"])
        k = rng.randint(2, 4)
        f = random_core(rng, rng.randint(1, 3), ("P", "Q"))
        trace = random_trace(rng, k, engine, ("P", "Q"))
        pos = 1 if engine == "mono" else 0
        if not eval_lasso(trace, f, pos):
            continue
        accepted += 1
        facts = tuple(
            (t, atom, bool(trace.valuations[atom][t]))
            for atom in trace.atoms
            for t in range(k + 1)
        )
        pins = PartialHistory(
            facts,
            loop_at=trace.loop_start,
            pool_at=trace.pool_start if engine == "bi" else None,
        )
        _, result = _solve(
            CheckProblem(k=k, engine=engine, root=f, facts=pins,
                         atoms=trace.atoms)
        )
        assert result.verdict == "SAT", (engine, k, f, trace)


def test_loop_free_three_state_cycle(data_dir):
    doc = load_spec(data_dir / "cycle3.zot")
    for k, expected in ((1, "SAT"), (2, "SAT"), (3, "UNSAT")):
        problem = build_problem(doc, k, "mono", "loop-free")
        _, result = _solve(problem)
        assert result.verdict == expected, k


def test_loop_free_stutter_system(data_dir):
    doc = load_spec(data_dir / "stutter.zot")
    problem = build_problem(doc, 1, "mono", "loop-free")
    _, result = _solve(problem)
    assert result.verdict == "UNSAT"


def test_loop_free_free_atom_pigeonhole(data_dir):
    doc = load_spec(data_dir / "free1.zot")
    for k, expected in ((1, "SAT"), (2, "UNSAT")):
        problem = build_problem(doc, k, "mono", "loop-free")
        _, result = _solve(problem)
        assert result.verdict == expected, k


def test_loop_free_distinctness_holds_in_models(data_dir):
    doc = load_spec(data_dir / "cycle3.zot")
    problem = build_problem(doc, 2, "mono", "loop-free")
    encoded, result = _solve(problem)
    assert result.verdict == "SAT"
    vm = encoded.varmap
    states = [
        tuple(result.model[vm.lit(a, t)] for a in vm.atoms) for t in range(3)
    ]
    assert len(set(states)) == 3


def test_loop_free_runs_and_bounds_match_the_finite_word_brute_force(tmp_path):
    """Random systems (a root and a transition over 2-3 atoms): loop-free
    verdicts at k = 1..4 and find_bound up to 4 equal the enumeration of
    every word of pairwise distinct states, and SAT models are such words."""
    rng = random.Random(81)
    out = str(tmp_path / "out")
    for n in range(40):
        names = ("P", "Q", "R")[: rng.choice((2, 3))]
        root = random_core(rng, rng.randint(1, 3), names)
        trans = random_core(rng, rng.randint(1, 3), names)
        spec = tmp_path / f"system{n}.zot"
        spec.write_text(
            f"(declare {' '.join(names)})\n(property {formula_text(root)})\n"
            f"(trans {formula_text(trans)})\n"
        )
        doc = load_spec(spec)
        bound = None
        for k in range(1, 5):
            problem = build_problem(doc, k, "mono", "loop-free")
            accepted, _ = brute_force_loop_free(problem)
            report = run(RunConfig(spec_path=str(spec), out_dir=out, mode="loop-free", bound=k))
            assert (report.verdict == "SAT") == accepted, (k, spec.read_text())
            if accepted:
                trace = report.trace
                word = [{a: trace.holds(a, t) for a in trace.atoms} for t in range(k + 1)]
                assert accepts_loop_free(problem, word), (k, spec.read_text())
            elif bound is None:
                bound = k
        config = RunConfig(spec_path=str(spec), out_dir=out, max_bound=4)
        if bound is None:
            with pytest.raises(BoundSearchError):
                find_bound(config)
        else:
            assert find_bound(config) == bound, spec.read_text()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_future_dualities_hold_on_loop_free_windows(k):
    """lasts_xy(A, t) == !withinf_xy(!A, t) and alwf_x(A) == !somf_x(!A)
    on finite words too: at every instant of every word of k + 1 states
    (the finite-word evaluator), and as the negated root of a loop-free
    window, which is then UNSAT.  A strong next at the end of the window
    broke both."""
    rng = random.Random(83)
    pairs = []
    for variant in ("ee", "ie", "ei", "ii"):
        for t in (1, 2, 3):
            a = random_core(rng, 1, ("P", "Q"))
            pairs.append((Lasts(a, t, variant), Not(WithinF(Not(a), t, variant))))
    for variant in ("e", "i"):
        for _ in range(3):
            a = random_core(rng, 2, ("P", "Q"))
            pairs.append((Alwf(a, variant), Not(Somf(Not(a), variant))))
    words = [
        [dict(zip((P, Q), bits[2 * t:2 * t + 2])) for t in range(k + 1)]
        for bits in product((False, True), repeat=2 * (k + 1))
    ]
    for lhs, rhs in pairs:
        lhs, rhs = desugar(lhs), desugar(rhs)
        for word in words:
            memo = {}
            assert finite_values(lhs, word, memo) == finite_values(rhs, word, memo), (lhs, word)
        problem = CheckProblem(k=k, engine="mono", root=Not(Iff(lhs, rhs)), atoms=(P, Q),
                               loop_free=True)
        assert _solve(problem)[1].verdict == "UNSAT", lhs


def test_loop_free_encoding_grows_only_the_same_problem():
    problem = CheckProblem(k=2, engine="mono", root=Yesterday(P), atoms=(P, Q), loop_free=True)
    encoded = encode(problem)
    grown = encode(replace(problem, k=4), encoded)
    assert grown.varmap is encoded.varmap and grown.varmap.k == 4
    assert grown.activation != encoded.activation
    with pytest.raises(EncodingError, match="same problem"):
        encode(replace(problem, k=5, root=P), grown)
    with pytest.raises(EncodingError, match="same problem"):
        encode(replace(problem, k=3), grown)
    # a lasso encoding grows the same way, but not into a loop-free one
    lasso = replace(problem, loop_free=False)
    grown = encode(replace(lasso, k=5), encode(lasso))
    assert grown.varmap.k == 5 and sorted(grown.varmap.loop_selectors) == [1, 2, 3, 4, 5]
    with pytest.raises(EncodingError, match="same problem"):
        encode(replace(problem, k=6), grown)


def test_loop_free_encoding_has_no_selectors():
    problem = CheckProblem(k=2, engine="mono", root=Yesterday(P), atoms=(P,))
    loopy = encode(problem)
    free = encode(replace(problem, loop_free=True))
    assert free.activation and loopy.activation  # both close at k under E_k
    assert free.varmap.loop_selectors == {}
    assert loopy.varmap.loop_selectors != {}


def test_loop_free_rejects_bi():
    problem = CheckProblem(k=2, engine="bi", root=P)
    encode(problem)
    with pytest.raises(EncodingError, match="defined for the mono engine only"):
        encode(replace(problem, loop_free=True))


def _size(text, k, mode):
    """(variables, clauses) of a spec's encoding at bound k on mono."""
    inst = encode(build_problem(parse_spec_text(text), k, "mono", mode)).cnf
    return inst.num_vars, len(inst.clauses)


@pytest.mark.parametrize("mode", ["bsc", "loop-free"])
def test_an_item_adds_one_clause_per_value_pair_and_instant(mode):
    """A transition is asserted as clauses over its literals: an item of n
    values costs its n atom rows, its at-least-one clause and one clause
    per value pair at each instant, and no variable for a pair."""
    n, k = 16, 5
    plain = "(declare p)\n(property (-P- p))\n"
    item = f"(define-item c ({' '.join(map(str, range(n)))}))\n" + plain
    (v0, c0), (v1, c1) = _size(plain, k, mode), _size(item, k, mode)
    assert (v1 - v0, c1 - c0) == (n * (k + 1), (n * (n - 1) // 2 + 1) * (k + 1))


def test_a_next_implication_adds_one_binary_clause_per_instant():
    """(trans (-> a (next b))) is the clause -a(t) | b(t+1) at each instant
    where it fits, and takes no variable for its implication: a loop-free
    window adds only those and b's successor literal y at its end, which
    is false under E_k."""
    k = 5
    plain = "(declare a b)\n(property (-P- a))\n"
    doc = parse_spec_text(plain + "(trans (-> (-P- a) (next (-P- b))))\n")
    base = encode(build_problem(parse_spec_text(plain), k, "mono", "loop-free"))
    encoded = encode(build_problem(doc, k, "mono", "loop-free"))
    vm = encoded.varmap
    a, b = vm.atoms
    added = list(map(tuple, encoded.cnf.clauses))
    for clause in map(tuple, base.cnf.clauses):
        added.remove(clause)
    y = vm.lit(Next(b), k)
    assert encoded.cnf.num_vars == base.cnf.num_vars + 1 == y
    assert sorted(added) == sorted([(-encoded.activation, -y),
                                    *((-vm.lit(a, t), vm.lit(b, t + 1)) for t in range(k))])
    # on the lasso the last instant reads b's successor literal
    base = encode(build_problem(parse_spec_text(plain), k, "mono", "bsc")).cnf
    grown = encode(build_problem(doc, k, "mono", "bsc")).cnf
    binary = [c for c in grown.clauses if len(c) == 2]
    assert len(binary) - sum(len(c) == 2 for c in base.clauses) == k + 1


def test_a_skeleton_node_read_by_the_root_keeps_its_literal():
    """The and/or skeleton of a transition owns no row, but a node of it
    that the root reads keeps its literal and its definition."""
    R = Atom("R")
    shared = Or((P, Q))
    transition = And((shared, Not(R)))
    problem = CheckProblem(k=3, engine="mono", root=shared, transitions=(transition,),
                           atoms=(P, Q, R))
    encoded = encode(problem)
    vm = encoded.varmap
    assert transition not in vm.closure
    assert vm.root_lit == vm.lit(shared, 1)
    x = vm.lit(shared, 2)
    assert x not in (vm.lit(P, 2), vm.lit(Q, 2))
    inst = to_cnf(encoded)
    # x <-> P | Q, and the transition asserts P | Q and -R at instant 2
    for extra, verdict in (([], "SAT"), ([[-x]], "UNSAT"), ([[vm.lit(R, 2)]], "UNSAT")):
        result = solve_embedded(replace(inst, clauses=inst.clauses + extra))
        assert result.verdict == verdict, extra


# Encoding bytes pinned at a known-good state: spec, k, engine, mode, copy
# blocks, variables, clauses and the SHA-256 of the DIMACS text.  A change
# to the encoding must update a row on purpose; a row's test id names only
# its problem, so it stays the same when the row is re-pinned.
PINNED = [
    ("lamp.zot", 5, "mono", "bsc", 0, 257, 904,
     "57afcb8e53632a7819e2e6c95ee095e01a50719ff62a89e43aa68497252cb4f7"),
    ("lamp.zot", 5, "bi", "bsc", 0, 282, 1041,
     "c15638346ffa3c8f72d42b9163751b2d495c15d73eb61fe75fb7e0224e7b2842"),
    ("mutex3.zot", 4, "mono", "bmc", 0, 537, 1979,
     "b0443d1c6990863012741503fab28fe0b26ddd6ff91db4703da0c9a10d10fde2"),
    ("mutex3.zot", 4, "bi", "bmc", 13, 763, 2870,
     "0b4a1bb67365b90c70ba75d1413fe9d0c6765d20263a2fc218c2f8e2f57ad6cf"),
    ("cycle3.zot", 3, "mono", "loop-free", 0, 17, 31,
     "ae39a6f721ae9a613367dd59cb31893fa1e749f96a1c28110d2415e6114a023c"),
    ("stutter.zot", 4, "bi", "bsc", 0, 28, 74,
     "e4a82280672fff606e57145d4625299a8310d21369337f479a21b646049a4023"),
    ("lamp.zot", 10, "bi", "hcc", 0, 422, 1710,
     "ac313470ba07573c4c4ea766c6ecebb5fe777f05c3242451896a6cea3181302d"),
    ("mutex3.zot", 4, "mono", "loop-free", 0, 514, 1777,
     "18f57a05067618b80d986bd709a093f06584babc0ff439a629d53a257fe872e9"),
]


@pytest.mark.parametrize(
    "spec,k,engine,mode,blocks,nvars,nclauses,digest", PINNED,
    ids=["-".join(map(str, row[:4])) for row in PINNED],
)
def test_encoding_bytes_are_pinned(
    data_dir, spec, k, engine, mode, blocks, nvars, nclauses, digest
):
    facts = load_history(data_dir / "lamp_history.txt") if mode == "hcc" else None
    problem = build_problem(load_spec(data_dir / spec), k, engine, mode, facts)
    encoded = encode(problem)
    inst = to_cnf(encoded)
    assert len(encoded.varmap.copy_base) == blocks
    assert (inst.num_vars, len(inst.clauses)) == (nvars, nclauses)
    assert hashlib.sha256(dimacs_text(inst).encode()).hexdigest() == digest


# The total that `scripts/encoding_digest.py` prints by default: it hashes
# about 2,000 encodings (the tests/data corpus over engines, modes and
# bounds, seeded random formulas, and a few long-row probes).  A change to
# the encoding re-pins it.
DIGEST_TOTAL = "c8d0cde4774ce0434932cbb09c2294719875d1a169e3856412e72178d56558ed"


def test_encoding_digest_is_pinned():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(root / "src"), env.get("PYTHONPATH")))
    )
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "encoding_digest.py")],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["total", DIGEST_TOTAL], proc.stdout


def _rows(vm, f):
    """(family, copy, literal row) of every copy of f."""
    return [("r", d, row) for d, row in enumerate(vm.rrows[f])] + [
        ("l", e, row) for e, row in enumerate(vm.lrows[f]) if e
    ]


def _row(vm, family, f, c):
    """f's row at copy c, clamped to its last copy as the encoder reads it."""
    rows = (vm.rrows if family == "r" else vm.lrows)[f]
    return rows[min(c, len(rows) - 1)]


def _equivalent_pairs(inst):
    """Variable pairs tied by [-v, x] and [v, -x], neither fixed by a unit."""
    units = {c[0] for c in inst.clauses if len(c) == 1}
    binary = {frozenset(c) for c in inst.clauses if len(c) == 2}
    pairs = set()
    for c in binary:
        a, b = tuple(c)
        if frozenset((-a, -b)) in binary and not {a, -a, b, -b} & units:
            pairs.add((min(abs(a), abs(b)), max(abs(a), abs(b))))
    return pairs


@pytest.mark.parametrize("spec,engine,mode", [
    ("lamp.zot", "mono", "bsc"),
    ("lamp.zot", "bi", "bsc"),
    ("mutex3.zot", "mono", "bmc"),
    ("mutex3.zot", "bi", "bmc"),
    ("mutex3.zot", "mono", "loop-free"),
])
def test_negations_and_shifts_are_aliases(data_dir, spec, engine, mode):
    encoded = encode(build_problem(load_spec(data_dir / spec), 5, engine, mode))
    vm, inst = encoded.varmap, to_cnf(encoded)
    nots = [f for f in vm.closure if isinstance(f, Not)]
    nexts = [f for f in vm.closure if isinstance(f, Next)]
    assert nots and nexts
    # a negation is its operand's literal negated, at every copy and instant
    for f in nots:
        for family, c, row in _rows(vm, f):
            assert row == [-lit for lit in _row(vm, family, f.sub, c)]
    # a next is its operand one instant later, but at the last instant,
    # whose successor enters with a later bound (a loop pass starts at 1)
    for f in nexts:
        for d, row in enumerate(vm.rrows[f]):
            first = 1 if d else 0
            assert row[first:-1] == _row(vm, "r", f.sub, d)[first + 1:]
    # no negation owns an id: its literals are read by other entries, and
    # every id is a selector or such a literal
    read = {abs(lit) for f in vm.closure if not isinstance(f, Not)
            for _, _, row in _rows(vm, f) for lit in row}
    assert all(abs(lit) in read for f in nots for _, _, row in _rows(vm, f) for lit in row)
    assert not any(key[0] in nots for key in vm.copy_base)
    selectors = set(vm.loop_selectors.values()) | set(vm.pool_selectors.values())
    assert set(range(1, vm.max_var + 1)) <= read | selectors
    # no variable is only another literal under a name of its own
    assert not _equivalent_pairs(inst)
    # the constants at the mono origin share one literal
    if engine == "mono":
        origin = {abs(vm.lit(f, 0)) for f in vm.closure if isinstance(f, (Yesterday, Zeta))}
        assert len(origin) == 1 and [max(origin)] in inst.clauses


def test_atomless_loop_free_windows_are_unsat(tmp_path):
    # no atoms: no two instants can differ, so the distinctness of the pair
    # the first model repeats is the empty clause, and the completeness
    # bound is 1
    encoded = encode(CheckProblem(k=1, engine="mono", root=TrueF(), loop_free=True))
    assert [] not in to_cnf(encoded).clauses
    assert solve_window(encoded).verdict == "UNSAT"
    inst = to_cnf(encoded)
    assert [] in inst.clauses
    assert solve_embedded(inst).verdict == "UNSAT"
    spec = tmp_path / "atomless.zot"
    spec.write_text("(property (TRUE))\n")
    assert find_bound(RunConfig(spec_path=str(spec), out_dir=str(tmp_path))) == 1


def test_history_fact_beyond_bound_rejected():
    pins = PartialHistory(((5, P, True),))
    with pytest.raises(EncodingError, match="exceeds the bound"):
        encode(CheckProblem(k=3, engine="mono", root=P, facts=pins, atoms=(P,)))


def test_pool_marker_requires_bi_engine():
    pins = PartialHistory(((0, P, True),), pool_at=2)
    with pytest.raises(EncodingError, match="bi engine"):
        encode(CheckProblem(k=3, engine="mono", root=P, facts=pins, atoms=(P,)))


def test_loop_free_window_rejects_history_facts():
    pins = PartialHistory(((0, P, True),))
    with pytest.raises(EncodingError, match="meaningless in loop-free mode"):
        encode(CheckProblem(k=3, engine="mono", root=P, facts=pins, atoms=(P,),
                            loop_free=True))


def test_bi_transitions_with_past_content_constrain_the_past_loop():
    """yesterday(p) -> p at every integer instant: p is upward closed."""
    from lassosat.desugar import desugar
    from lassosat.formula import Alwf, Implies, Somp

    persist = Implies(Yesterday(P), P)
    # p at instant 0 forces p at every later instant of the induced word
    future_all = desugar(Alwf(P, "i"))
    _, result = _solve(
        CheckProblem(k=4, engine="bi", root=And((P, Not(future_all))),
                     transitions=(persist,), atoms=(P,))
    )
    assert result.verdict == "UNSAT"
    # the past period spans u[0..pool] and repeats backward, so a not-p cell
    # in it would recur after the p-true cell at instant 0 and break
    # persistence: p-now with not-p somewhere in the strict past is
    # unsatisfiable under this transition (brute-force confirmed)
    past_somewhere_not = desugar(Somp(Not(P), "e"))
    _, result = _solve(
        CheckProblem(k=4, engine="bi", root=And((P, past_somewhere_not)),
                     transitions=(persist,), atoms=(P,))
    )
    assert result.verdict == "UNSAT"
    # without the transition the same root is easily satisfiable
    encoded, result = _solve(
        CheckProblem(k=4, engine="bi", root=And((P, past_somewhere_not)),
                     atoms=(P,))
    )
    assert result.verdict == "SAT"
    trace = decode(result, encoded.varmap)
    assert eval_lasso(trace, And((P, past_somewhere_not)), 0)


def test_deep_metric_chain_runs_under_the_default_recursion_limit(tmp_path):
    spec = tmp_path / "deep.zot"
    spec.write_text("(declare a)\n(property (futr (-P- a) 5000))\n")
    report = run(RunConfig(spec_path=str(spec), bound=5, out_dir=str(tmp_path)))
    assert report.verdict == "SAT"
    problem = build_problem(load_spec(spec), 5, "mono", "bsc")
    assert check_trace_against_root(problem, report.trace)
