"""Compile core formulas at bound k into a propositional circuit.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .errors import EncodingError
from .formula import (
    And,
    Atom,
    FalseF,
    Formula,
    Iff,
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
# circuits: True/False, ("v", id), ("not", c), ("and", cs), ("or", cs),
# ("iff", a, b) -- iff kept explicit because definitional constraints are
# exactly var <-> gate and translate to clauses without fresh variables.
# ---------------------------------------------------------------------------


def cvar(vid: int):
    return ("v", vid)


def cnot(c):
    if c is True:
        return False
    if c is False:
        return True
    if isinstance(c, tuple) and c[0] == "not":
        return c[1]
    return ("not", c)


def cand(items):
    out = []
    for c in items:
        if c is False:
            return False
        if c is not True:
            out.append(c)
    if not out:
        return True
    if len(out) == 1:
        return out[0]
    return ("and", tuple(out))


def cor(items):
    out = []
    for c in items:
        if c is True:
            return True
        if c is not False:
            out.append(c)
    if not out:
        return False
    if len(out) == 1:
        return out[0]
    return ("or", tuple(out))


def ciff(a, b):
    if a is True:
        return b
    if b is True:
        return a
    if a is False:
        return cnot(b)
    if b is False:
        return cnot(a)
    return ("iff", a, b)


def cimp(a, b):
    return cor((cnot(a), b))


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
    formula: tuple  # circuit, a big conjunction
    engine: str
    loop_free: bool


def encode(problem: CheckProblem) -> EncodedProblem:
    """Compile a problem into one circuit, loopy or loop-free."""
    return _Encoder(problem).encode()


def _all_formulas(problem: CheckProblem):
    forms = []
    if problem.root is not None:
        forms.append(problem.root)
    forms.extend(problem.transitions)
    forms.extend(problem.global_constraints)
    return forms


def _exactly_one(vs: List[int]):
    out = [cor([cvar(v) for v in vs])]
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            out.append(cor((cnot(cvar(vs[i])), cnot(cvar(vs[j])))))
    return out


def _fact_constraints(problem: CheckProblem, vm: VarMap):
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
        x = cvar(vm.var(atom, instant))
        out.append(x if polarity else cnot(x))
    if facts.loop_at is not None:
        if not vm.loop_selectors:
            raise EncodingError("**LOOP** marker is meaningless in loop-free mode")
        if facts.loop_at not in vm.loop_selectors:
            raise EncodingError(
                f"history loop marker at {facts.loop_at} outside 1..{vm.k}"
            )
        out.append(cvar(vm.loop_selectors[facts.loop_at]))
    if facts.pool_at is not None:
        if vm.engine != "bi":
            raise EncodingError("**POOL** marker requires the bi engine")
        if facts.pool_at not in vm.pool_selectors:
            raise EncodingError(
                f"history pool marker at {facts.pool_at} outside 1..{vm.k}"
            )
        out.append(cvar(vm.pool_selectors[facts.pool_at]))
    return out


def _bool_circuit(f: Formula, operand):
    """Circuit for a boolean node given a child -> circuit accessor."""
    if isinstance(f, Not):
        return cnot(operand(f.sub))
    if isinstance(f, And):
        return cand([operand(c) for c in f.items])
    if isinstance(f, Or):
        return cor([operand(c) for c in f.items])
    if isinstance(f, Implies):
        return cor((cnot(operand(f.left)), operand(f.right)))
    if isinstance(f, Iff):
        return ciff(operand(f.left), operand(f.right))
    raise EncodingError(f"not a boolean connective: {type(f).__name__}")


# ---------------------------------------------------------------------------
# the encoder: one expansion rule per operator, shared by every mode
# ---------------------------------------------------------------------------

# shift operators: the recurrence neighbour is the operand, not the node
_SHIFT = frozenset((Next, Yesterday, Zeta))
# weak duals: the neighbour beyond a finite edge is true (false otherwise)
_WEAK = frozenset((Zeta, Release, Trigger))
_UNTIL_LIKE = frozenset((Until, Since))


def _rec(acc, f: Formula, d: int, t: int, nd: int, nt: Optional[int]):
    """The fixpoint expansion of temporal node f at copy d, instant t.

    `acc(g, copy, instant)` is R or Lc; (nd, nt) is the recurrence
    neighbour, and nt None puts it beyond a finite edge of the word, where
    it is false for the strong operators and true for the weak duals.
    """
    cls = type(f)
    if cls in _SHIFT:
        return (cls in _WEAK) if nt is None else acc(f.sub, nd, nt)
    nxt = (cls in _WEAK) if nt is None else acc(f, nd, nt)
    a, b = acc(f.left, d, t), acc(f.right, d, t)
    if cls in _UNTIL_LIKE:
        return cor((b, cand((a, nxt))))
    return cand((b, cor((a, nxt))))


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
        self.cons: List = []
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
    def R(self, f: Formula, d: int, t: int):
        if not 0 <= t <= self.k:
            raise EncodingError(f"instant {t} outside 0..{self.k}")
        bases = self.rbases[f]
        return cvar((bases[d] if d < len(bases) else bases[-1]) + t)

    def Lc(self, f: Formula, e: int, t: int):
        if not 0 <= t <= self.k:
            raise EncodingError(f"instant {t} outside 0..{self.k}")
        bases = self.lbases[f]
        return cvar((bases[e] if e < len(bases) else bases[-1]) + t)

    def encode(self) -> EncodedProblem:
        vm = self.vm
        for selectors in (vm.loop_selectors, vm.pool_selectors):
            if selectors:
                self.cons.extend(_exactly_one(list(selectors.values())))

        for f in vm.partitions["bool"]:
            self._emit_bool(f)
        for f in vm.partitions["future"]:
            self._emit_future(f)
        for f in vm.partitions["past"]:
            self._emit_past(f)

        self._emit_assertions()
        self.cons.extend(_fact_constraints(self.problem, vm))
        if self.loop_free:
            self._emit_all_different()
        return EncodedProblem(
            varmap=vm,
            formula=cand(self.cons) if self.cons else True,
            engine=self.engine,
            loop_free=self.loop_free,
        )

    def _emit_bool(self, f: Formula):
        k = self.k
        if isinstance(f, (TrueF, FalseF)):
            positive = isinstance(f, TrueF)
            for t in range(k + 1):
                x = self.R(f, 0, t)
                self.cons.append(x if positive else cnot(x))
            return
        for d in range(self.caps[f][0] + 1):
            for t in range(k + 1):
                circuit = _bool_circuit(f, lambda c, d=d, t=t: self.R(c, d, t))
                self.cons.append(ciff(self.R(f, d, t), circuit))
        for e in range(1, self.caps[f][1] + 1):
            for t in range(k + 1):
                circuit = _bool_circuit(f, lambda c, e=e, t=t: self.Lc(c, e, t))
                self.cons.append(ciff(self.Lc(f, e, t), circuit))

    def _emit_future(self, f: Formula):
        k, cons, R, Lc, rec = self.k, self.cons, self.R, self.Lc, _rec
        loops = self.vm.loop_selectors.items()
        pools = self.vm.pool_selectors.items()
        nr, nl = self.caps[f]
        for d in range(nr + 1):
            for t in range(k):
                cons.append(ciff(R(f, d, t), rec(R, f, d, t, d, t + 1)))
            if self.loop_free:
                # instant k has no successor: the finite-word value
                cons.append(ciff(R(f, d, k), rec(R, f, d, k, d, None)))
            # instant k loops back to the selected position, one pass deeper
            for i, s in loops:
                cons.append(cimp(cvar(s), ciff(R(f, d, k), rec(R, f, d, k, d + 1, i))))
        # obligations alive at the end of the top copy are discharged inside
        # the loop (its crossing is a self-cycle)
        if type(f) is Until:
            for i, s in loops:
                witness = cor([R(f.right, nr, t) for t in range(i, k + 1)])
                cons.append(cimp(cand((cvar(s), R(f, nr, k))), witness))
        elif type(f) is Release:
            for i, s in loops:
                always = cand([R(f.right, nr, t) for t in range(i, k + 1)])
                cons.append(cimp(cand((cvar(s), always)), R(f, nr, k)))

        # bi engine: backward passes through the past loop
        for e in range(1, nl + 1):
            for p, s in pools:
                sel = cvar(s)
                for t in range(p):
                    cons.append(cimp(sel, ciff(Lc(f, e, t), rec(Lc, f, e, t, e, t + 1))))
                cons.append(cimp(sel, ciff(Lc(f, e, p), rec(Lc, f, e, p, e - 1, 0))))
        # future values agree at p and at the virtual predecessor of 0
        for p, s in pools:
            cons.append(cimp(cvar(s), ciff(Lc(f, nl, p), rec(Lc, f, nl, p, nl, 0))))

    def _emit_past(self, f: Formula):
        k, cons, R, Lc, rec = self.k, self.cons, self.R, self.Lc, _rec
        loops = self.vm.loop_selectors.items()
        pools = self.vm.pool_selectors.items()
        nr, nl = self.caps[f]
        for t in range(1, k + 1):
            cons.append(ciff(R(f, 0, t), rec(R, f, 0, t, 0, t - 1)))
        if not pools:
            # mono engine: instant 0 is the time origin, a finite edge
            cons.append(ciff(R(f, 0, 0), rec(R, f, 0, 0, 0, None)))
        # bi engine: no origin, instant 0 wraps into the past loop (copy 0
        # of Lc is the primary block)
        for p, s in pools:
            cons.append(cimp(cvar(s), ciff(R(f, 0, 0), rec(Lc, f, 0, 0, 1, p))))

        # deeper traversals of the future loop (past values shift one pass)
        for d in range(1, nr + 1):
            for i, s in loops:
                sel = cvar(s)
                for t in range(i + 1, k + 1):
                    cons.append(cimp(sel, ciff(R(f, d, t), rec(R, f, d, t, d, t - 1))))
                cons.append(cimp(sel, ciff(R(f, d, i), rec(R, f, d, i, d - 1, k))))
        # the top copy is past-consistent: the loop entry value agrees with
        # the value at the virtual successor of k
        for i, s in loops:
            cons.append(cimp(cvar(s), ciff(R(f, nr, i), rec(R, f, nr, i, nr, k))))

        # bi engine: backward passes through the past loop
        for e in range(1, nl + 1):
            for p, s in pools:
                sel = cvar(s)
                for t in range(1, p + 1):
                    cons.append(cimp(sel, ciff(Lc(f, e, t), rec(Lc, f, e, t, e, t - 1))))
                cons.append(cimp(sel, ciff(Lc(f, e, 0), rec(Lc, f, e, 0, e + 1, p))))
        # since/trigger are cyclic around the past loop at their deepest
        # backward copy: discharge the obligations there
        if type(f) is Since:
            for p, s in pools:
                witness = cor([Lc(f.right, nl, t) for t in range(p + 1)])
                cons.append(cimp(cand((cvar(s), Lc(f, nl, 0))), witness))
        elif type(f) is Trigger:
            for p, s in pools:
                always = cand([Lc(f.right, nl, t) for t in range(p + 1)])
                cons.append(cimp(cand((cvar(s), always)), Lc(f, nl, 0)))

    def _emit_assertions(self):
        vm, k, cons = self.vm, self.k, self.cons
        problem = self.problem
        for tr in problem.transitions:
            # loop-free: only where the lookahead fits the window
            last = k - temporal_depth(tr)[0] if self.loop_free else k
            for t in range(last + 1):
                cons.append(self.R(tr, 0, t))
            nr, nl = self.caps[tr]
            # constraints with past content must also hold on later passes
            for d in range(1, nr + 1):
                for i, s in vm.loop_selectors.items():
                    sel = cvar(s)
                    for t in range(i, k + 1):
                        cons.append(cimp(sel, self.R(tr, d, t)))
            for e in range(1, nl + 1):
                for p, s in vm.pool_selectors.items():
                    sel = cvar(s)
                    for t in range(p + 1):
                        cons.append(cimp(sel, self.Lc(tr, e, t)))
        for gc in problem.global_constraints:
            for t in range(k + 1):
                cons.append(self.R(gc, 0, t))
        if problem.root is not None:
            vm.root_var = vm.var(problem.root, vm.assertion_instant)
            cons.append(cvar(vm.root_var))

    def _emit_all_different(self):
        # every pair of instants differs in at least one atom
        k, R = self.k, self.R
        for s in range(k + 1):
            for t in range(s + 1, k + 1):
                diffs = [cnot(ciff(R(a, 0, s), R(a, 0, t))) for a in self.vm.atoms]
                self.cons.append(cor(diffs))
