"""Compile core formulas at bound k straight into CNF clauses.

Instants run 0..k.  The mono-infinite engine requires exactly one future
loop selector L_i (1 <= i <= k), read as "the successor of instant k is
instant i", so a model denotes the infinite word u[0..i-1] (u[i..k])^w.
The bi-infinite engine adds exactly one past selector P_p and anchors the
word ^w(u[0..p]) u[0..k] (u[i..k])^w at absolute instant 0.

Subformula variables are constrained by their fixpoint expansions, one rule
per operator (`_rec`): a node's value at instant t follows from its operands
at t and from its recurrence neighbour, the node (or, for next/yesterday/
zeta, the operand) one instant further in the operator's direction.  Where
that neighbour lies beyond a finite edge of the word (the mono origin, the
end of a loop-free window) it is a constant: false for the strong operators
next, yesterday, until and since, true for the weak duals zeta, release and
trigger.  Until obligations alive at the end of the loop must be discharged
inside it (and Since obligations inside the past loop, for the bi engine),
with the dual constraints pinning Release/Trigger.

Past-dependent subformulas change value between traversals of the loop, so
one variable per (subformula, instant) cannot be exact.  Such subformulas
are virtually unrolled: copy d of a variable tracks the d-th traversal,
capped at past-depth + 1, from where the traversal values provably repeat
(each level's loop-entry value follows a monotone boolean recurrence, and a
monotone function on {0,1} satisfies f(f(x)) = f(x)).  Atoms, temporal-free
and pure-future subformulas keep a single copy.  The top copy still asserts
that the value at the loop entry equals the value at the virtual successor
of k; stabilization makes that a tautology for true traversal values, so it
guards soundness without sacrificing completeness.  The bi engine mirrors
the scheme with backward copies of future-dependent subformulas across the
past loop.

The loop-free mode is the same encoder run without selectors and with a
single copy of every subformula, so instant k has no successor and the
future operators take their finite-word value there.  It also forces all
k+1 atom state vectors to be pairwise distinct, which makes UNSAT mean "no
loop-free path of this length exists", i.e. the completeness bound is
reached, and asserts transitions only where their lookahead fits the window.

Every rule writes its clauses into one cnf.ClauseSink as it goes, in a
single pass.  A subformula variable is defined by `var <-> and/or(...)`
clauses; a selector-guarded definition becomes `-sel | iff-gate(var, ...)`;
unnamed inner gates get memoized Tseitin variables above the VarMap's last
id, so models decode positionally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .cnf import ClauseSink, CnfInstance
from .errors import EncodingError
from .formula import (
    And,
    Atom,
    FalseF,
    Formula,
    Implies,
    Next,
    Not,
    Or,
    Release,
    Since,
    Trigger,
    TrueF,
    Until,
    Yesterday,
    Zeta,
    closure,
    temporal_depth,
)
from .trace import PartialHistory
from .varmap import VarMap, build_varmap

# ---------------------------------------------------------------------------
# encoder input / output
# ---------------------------------------------------------------------------


@dataclass
class CheckProblem:
    """A desugared, lowered verification problem, ready to encode."""

    k: int
    engine: str = "mono"
    root: Optional[Formula] = None
    transitions: Tuple[Formula, ...] = ()
    global_constraints: Tuple[Formula, ...] = ()  # e.g. one-hot domain groups
    atoms: Tuple[Atom, ...] = ()  # registry order; drives trace display
    facts: Optional[PartialHistory] = None
    loop_free: bool = False


@dataclass
class EncodedProblem:
    varmap: VarMap
    cnf: CnfInstance
    engine: str
    loop_free: bool


def encode(problem: CheckProblem) -> EncodedProblem:
    """Compile a problem into clauses, loopy or loop-free."""
    return _Encoder(problem).encode()


def _all_formulas(problem: CheckProblem):
    forms = []
    if problem.root is not None:
        forms.append(problem.root)
    forms.extend(problem.transitions)
    forms.extend(problem.global_constraints)
    return forms


def _exactly_one(sink: ClauseSink, vs: List[int]) -> None:
    sink.clause(vs)
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            sink.clause([-vs[i], -vs[j]])


def _fact_literals(problem: CheckProblem, vm: VarMap) -> List[int]:
    facts = problem.facts
    if facts is None:
        return []
    out = []
    for instant, atom, polarity in facts.facts:
        if instant > vm.k:
            raise EncodingError(
                f"history fact at time {instant} exceeds the bound k={vm.k}"
            )
        if atom not in vm.base:
            raise EncodingError(f"history atom {atom.display} is not registered")
        x = vm.var(atom, instant)
        out.append(x if polarity else -x)
    if facts.loop_at is not None:
        if not vm.loop_selectors:
            raise EncodingError("**LOOP** marker is meaningless in loop-free mode")
        if facts.loop_at not in vm.loop_selectors:
            raise EncodingError(
                f"history loop marker at {facts.loop_at} outside 1..{vm.k}"
            )
        out.append(vm.loop_selectors[facts.loop_at])
    if facts.pool_at is not None:
        if vm.engine != "bi":
            raise EncodingError("**POOL** marker requires the bi engine")
        if facts.pool_at not in vm.pool_selectors:
            raise EncodingError(
                f"history pool marker at {facts.pool_at} outside 1..{vm.k}"
            )
        out.append(vm.pool_selectors[facts.pool_at])
    return out


def _connective(f: Formula, operand):
    """(op, operand literals) of a boolean node, given a child -> literal map."""
    if isinstance(f, Not):
        return "and", [-operand(f.sub)]
    if isinstance(f, And):
        return "and", [operand(c) for c in f.items]
    if isinstance(f, Or):
        return "or", [operand(c) for c in f.items]
    if isinstance(f, Implies):
        return "or", [-operand(f.left), operand(f.right)]
    return "iff", [operand(f.left), operand(f.right)]


# ---------------------------------------------------------------------------
# the encoder: one expansion rule per operator, shared by every mode
# ---------------------------------------------------------------------------

# shift operators: the recurrence neighbour is the operand, not the node
_SHIFT = frozenset((Next, Yesterday, Zeta))
# weak duals: the neighbour beyond a finite edge is true (false otherwise)
_WEAK = frozenset((Zeta, Release, Trigger))
_UNTIL_LIKE = frozenset((Until, Since))


class _Encoder:
    def __init__(self, problem: CheckProblem):
        k, engine = problem.k, problem.engine
        self.loop_free = problem.loop_free
        if self.loop_free:
            if engine != "mono":
                raise EncodingError("loop-free mode is defined for the mono engine only")
            if k < 1:
                raise EncodingError(f"loop-free mode needs k >= 1, got {k}")
        else:
            if engine not in ("mono", "bi"):
                raise EncodingError(f"unknown engine {engine}")
            if k < 2:
                raise EncodingError(f"{engine} engine needs k >= 2, got {k}")
        self.problem = problem
        self.engine = engine
        self.k = k
        forms = _all_formulas(problem)
        self.caps: Dict[Formula, Tuple[int, int]] = {}
        for f in closure(forms):
            if self.loop_free or isinstance(f, Atom):
                self.caps[f] = (0, 0)
                continue
            fd, pd = temporal_depth(f)
            nr = 0 if pd == 0 else pd + 1
            nl = 0 if (engine != "bi" or fd == 0) else fd + 1
            self.caps[f] = (nr, nl)
        for a in problem.atoms:
            self.caps.setdefault(a, (0, 0))
        self.vm = build_varmap(
            forms, k, engine, problem.atoms,
            with_selectors=not self.loop_free, copies=self.caps,
        )
        self.vm.assertion_instant = 1 if engine == "mono" else 0
        self.sink = ClauseSink(self.vm.max_var)
        # block bases of each formula's traversal copies, index 0 being the
        # primary block, resolved once: R and Lc run for every literal emitted
        vm = self.vm
        self.rbases: Dict[Formula, List[int]] = {}
        self.lbases: Dict[Formula, List[int]] = {}
        for f, (nr, nl) in self.caps.items():
            b = vm.base[f]
            self.rbases[f] = [b] + [vm.copy_base[(f, "r", d)] for d in range(1, nr + 1)]
            self.lbases[f] = [b] + [vm.copy_base[(f, "l", e)] for e in range(1, nl + 1)]

    # copy accessors: d/e are clamped to the formula's own stabilized copy
    def R(self, f: Formula, d: int, t: int) -> int:
        if not 0 <= t <= self.k:
            raise EncodingError(f"instant {t} outside 0..{self.k}")
        bases = self.rbases[f]
        return (bases[d] if d < len(bases) else bases[-1]) + t

    def Lc(self, f: Formula, e: int, t: int) -> int:
        if not 0 <= t <= self.k:
            raise EncodingError(f"instant {t} outside 0..{self.k}")
        bases = self.lbases[f]
        return (bases[e] if e < len(bases) else bases[-1]) + t

    def _rec(self, acc, f: Formula, d: int, t: int, nd: int, nt: Optional[int]):
        """The fixpoint expansion of temporal node f at copy d, instant t.

        Returns (op, operand literals), op being "and" or "or"; an empty
        "and" is true and an empty "or" false.  `acc(g, copy, instant)` is R
        or Lc; (nd, nt) is the recurrence neighbour, and nt None puts it
        beyond a finite edge of the word, where it is false for the strong
        operators and true for the weak duals.
        """
        cls = type(f)
        if cls in _SHIFT:
            if nt is None:
                return ("and" if cls in _WEAK else "or"), []
            return "and", [acc(f.sub, nd, nt)]
        b = acc(f.right, d, t)
        if nt is None:  # until/since are strong, release/trigger weak: both give b
            return "and", [b]
        a, nxt = acc(f.left, d, t), acc(f, nd, nt)
        if cls in _UNTIL_LIKE:
            return "or", [b, self.sink.gate("and", [a, nxt])]
        return "and", [b, self.sink.gate("or", [a, nxt])]

    def _guarded(self, s: int, v: int, expansion) -> None:
        """Selector s implies v <-> expansion, through an iff gate."""
        gate = self.sink.gate
        self.sink.clause([-s, gate("iff", [v, gate(*expansion)])])

    def encode(self) -> EncodedProblem:
        vm, sink = self.vm, self.sink
        for selectors in (vm.loop_selectors, vm.pool_selectors):
            if selectors:
                _exactly_one(sink, list(selectors.values()))

        for f in vm.partitions["bool"]:
            self._emit_bool(f)
        for f in vm.partitions["future"]:
            self._emit_future(f)
        for f in vm.partitions["past"]:
            self._emit_past(f)

        self._emit_assertions()
        for lit in _fact_literals(self.problem, vm):
            sink.clause([lit])
        if self.loop_free:
            self._emit_all_different()
        return EncodedProblem(
            varmap=vm,
            cnf=sink.instance(),
            engine=self.engine,
            loop_free=self.loop_free,
        )

    def _emit_bool(self, f: Formula):
        k, define = self.k, self.sink.define
        if isinstance(f, (TrueF, FalseF)):
            positive = isinstance(f, TrueF)
            for t in range(k + 1):
                x = self.R(f, 0, t)
                self.sink.clause([x if positive else -x])
            return
        for d in range(self.caps[f][0] + 1):
            for t in range(k + 1):
                define(self.R(f, d, t), *_connective(f, lambda c: self.R(c, d, t)))
        for e in range(1, self.caps[f][1] + 1):
            for t in range(k + 1):
                define(self.Lc(f, e, t), *_connective(f, lambda c: self.Lc(c, e, t)))

    def _emit_future(self, f: Formula):
        k, R, Lc, rec = self.k, self.R, self.Lc, self._rec
        sink, define, guarded, gate = self.sink, self.sink.define, self._guarded, self.sink.gate
        loops = self.vm.loop_selectors.items()
        pools = self.vm.pool_selectors.items()
        nr, nl = self.caps[f]
        for d in range(nr + 1):
            for t in range(k):
                define(R(f, d, t), *rec(R, f, d, t, d, t + 1))
            if self.loop_free:
                # instant k has no successor: the finite-word value
                define(R(f, d, k), *rec(R, f, d, k, d, None))
            # instant k loops back to the selected position, one pass deeper
            for i, s in loops:
                guarded(s, R(f, d, k), rec(R, f, d, k, d + 1, i))
        # obligations alive at the end of the top copy are discharged inside
        # the loop (its crossing is a self-cycle)
        if type(f) is Until:
            for i, s in loops:
                witness = [R(f.right, nr, t) for t in range(i, k + 1)]
                sink.clause([-gate("and", [s, R(f, nr, k)])] + witness)
        elif type(f) is Release:
            for i, s in loops:
                always = gate("and", [R(f.right, nr, t) for t in range(i, k + 1)])
                sink.clause([-gate("and", [s, always]), R(f, nr, k)])

        # bi engine: backward passes through the past loop
        for e in range(1, nl + 1):
            for p, s in pools:
                for t in range(p):
                    guarded(s, Lc(f, e, t), rec(Lc, f, e, t, e, t + 1))
                guarded(s, Lc(f, e, p), rec(Lc, f, e, p, e - 1, 0))
        # future values agree at p and at the virtual predecessor of 0
        for p, s in pools:
            guarded(s, Lc(f, nl, p), rec(Lc, f, nl, p, nl, 0))

    def _emit_past(self, f: Formula):
        k, R, Lc, rec = self.k, self.R, self.Lc, self._rec
        sink, define, guarded, gate = self.sink, self.sink.define, self._guarded, self.sink.gate
        loops = self.vm.loop_selectors.items()
        pools = self.vm.pool_selectors.items()
        nr, nl = self.caps[f]
        for t in range(1, k + 1):
            define(R(f, 0, t), *rec(R, f, 0, t, 0, t - 1))
        if not pools:
            # mono engine: instant 0 is the time origin, a finite edge
            define(R(f, 0, 0), *rec(R, f, 0, 0, 0, None))
        # bi engine: no origin, instant 0 wraps into the past loop (copy 0
        # of Lc is the primary block)
        for p, s in pools:
            guarded(s, R(f, 0, 0), rec(Lc, f, 0, 0, 1, p))

        # deeper traversals of the future loop (past values shift one pass)
        for d in range(1, nr + 1):
            for i, s in loops:
                for t in range(i + 1, k + 1):
                    guarded(s, R(f, d, t), rec(R, f, d, t, d, t - 1))
                guarded(s, R(f, d, i), rec(R, f, d, i, d - 1, k))
        # the top copy is past-consistent: the loop entry value agrees with
        # the value at the virtual successor of k
        for i, s in loops:
            guarded(s, R(f, nr, i), rec(R, f, nr, i, nr, k))

        # bi engine: backward passes through the past loop
        for e in range(1, nl + 1):
            for p, s in pools:
                for t in range(1, p + 1):
                    guarded(s, Lc(f, e, t), rec(Lc, f, e, t, e, t - 1))
                guarded(s, Lc(f, e, 0), rec(Lc, f, e, 0, e + 1, p))
        # since/trigger are cyclic around the past loop at their deepest
        # backward copy: discharge the obligations there
        if type(f) is Since:
            for p, s in pools:
                witness = [Lc(f.right, nl, t) for t in range(p + 1)]
                sink.clause([-gate("and", [s, Lc(f, nl, 0)])] + witness)
        elif type(f) is Trigger:
            for p, s in pools:
                always = gate("and", [Lc(f.right, nl, t) for t in range(p + 1)])
                sink.clause([-gate("and", [s, always]), Lc(f, nl, 0)])

    def _emit_assertions(self):
        vm, k, clause = self.vm, self.k, self.sink.clause
        problem = self.problem
        for tr in problem.transitions:
            # loop-free: only where the lookahead fits the window
            last = k - temporal_depth(tr)[0] if self.loop_free else k
            for t in range(last + 1):
                clause([self.R(tr, 0, t)])
            nr, nl = self.caps[tr]
            # constraints with past content must also hold on later passes
            for d in range(1, nr + 1):
                for i, s in vm.loop_selectors.items():
                    for t in range(i, k + 1):
                        clause([-s, self.R(tr, d, t)])
            for e in range(1, nl + 1):
                for p, s in vm.pool_selectors.items():
                    for t in range(p + 1):
                        clause([-s, self.Lc(tr, e, t)])
        for gc in problem.global_constraints:
            for t in range(k + 1):
                clause([self.R(gc, 0, t)])
        if problem.root is not None:
            vm.root_var = vm.var(problem.root, vm.assertion_instant)
            clause([vm.root_var])

    def _emit_all_different(self):
        # every pair of instants differs in at least one atom; with no atoms
        # that is the empty clause
        k, R, sink = self.k, self.R, self.sink
        atoms = self.vm.atoms
        for s in range(k + 1):
            for t in range(s + 1, k + 1):
                if len(atoms) == 1:  # a_s <-> -a_t: two clauses, no gate
                    sink.define(R(atoms[0], 0, s), "and", [-R(atoms[0], 0, t)])
                else:
                    sink.clause([-sink.gate("iff", [R(a, 0, s), R(a, 0, t)]) for a in atoms])
