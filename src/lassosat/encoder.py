"""Compile core formulas at bound k into a propositional circuit.

Instants run 0..k.  The mono-infinite engine requires exactly one future
loop selector L_i (1 <= i <= k), read as "the successor of instant k is
instant i", so a model denotes the infinite word u[0..i-1] (u[i..k])^w.
The bi-infinite engine adds exactly one past selector P_p and anchors the
word ^w(u[0..p]) u[0..k] (u[i..k])^w at absolute instant 0.

Subformula variables are constrained by their fixpoint expansions; Until
obligations alive at the end of the loop must be discharged inside it (and
Since obligations inside the past loop, for the bi engine), with the dual
constraints pinning Release/Trigger.

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

The loop-free mode drops the selectors and instead forces all k+1 atom
state vectors to be pairwise distinct, which makes UNSAT mean "no loop-free
path of this length exists", i.e. the completeness bound is reached.
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
    source: CheckProblem


def encode(problem: CheckProblem) -> EncodedProblem:
    if problem.loop_free:
        return _encode_loop_free(problem)
    if problem.engine == "mono":
        return encode_mono(problem)
    if problem.engine == "bi":
        return encode_bi(problem)
    raise EncodingError(f"unknown engine {problem.engine}")


def encode_mono(problem: CheckProblem) -> EncodedProblem:
    if problem.loop_free:
        return _encode_loop_free(problem)
    return _Loopy(problem, "mono").encode()


def encode_bi(problem: CheckProblem) -> EncodedProblem:
    return _Loopy(problem, "bi").encode()


def add_loop_free(problem: EncodedProblem) -> EncodedProblem:
    """Re-encode the same problem with the loop machinery replaced."""
    if problem.engine != "mono":
        raise EncodingError("loop-free mode is defined for the mono engine only")
    src = problem.source
    return _encode_loop_free(
        CheckProblem(
            k=src.k,
            engine="mono",
            root=src.root,
            transitions=src.transitions,
            global_constraints=src.global_constraints,
            atoms=src.atoms,
            facts=src.facts,
            loop_free=True,
        )
    )


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


def _until_like(f):
    return isinstance(f, (Until, Since))


def _step(f, a, b, nxt):
    """One fixpoint expansion step: operands now, the recurrence neighbour."""
    if _until_like(f):
        return cor((b, cand((a, nxt))))
    return cand((b, cor((a, nxt))))


# ---------------------------------------------------------------------------
# the two loopy engines
# ---------------------------------------------------------------------------


class _Loopy:
    def __init__(self, problem: CheckProblem, engine: str):
        k = problem.k
        if k < 2:
            raise EncodingError(f"{engine} engine needs k >= 2, got {k}")
        self.problem = problem
        self.engine = engine
        self.k = k
        forms = _all_formulas(problem)
        self.caps: Dict[Formula, Tuple[int, int]] = {}
        for f in closure(forms):
            if isinstance(f, Atom):
                self.caps[f] = (0, 0)
                continue
            fd, pd = temporal_depth(f)
            nr = 0 if pd == 0 else pd + 1
            nl = 0 if (engine != "bi" or fd == 0) else fd + 1
            self.caps[f] = (nr, nl)
        for a in problem.atoms:
            self.caps.setdefault(a, (0, 0))
        self.vm = build_varmap(
            forms, k, engine, problem.atoms, copies=self.caps
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
        vm, k = self.vm, self.k
        cons = self.cons
        cons.extend(_exactly_one([vm.loop_selectors[i] for i in range(1, k + 1)]))
        if self.engine == "bi":
            cons.extend(_exactly_one([vm.pool_selectors[p] for p in range(1, k + 1)]))

        for f in vm.partitions["bool"]:
            self._emit_bool(f)
        for f in vm.partitions["future"]:
            self._emit_future(f)
        for f in vm.partitions["past"]:
            self._emit_past(f)

        self._emit_assertions()
        cons.extend(_fact_constraints(self.problem, vm))
        return EncodedProblem(
            varmap=vm,
            formula=cand(cons) if cons else True,
            engine=self.engine,
            loop_free=False,
            source=self.problem,
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
        vm, k, cons = self.vm, self.k, self.cons
        nr, nl = self.caps[f]
        is_next = isinstance(f, Next)
        for d in range(nr + 1):
            for t in range(k):
                if is_next:
                    rhs = self.R(f.sub, d, t + 1)
                else:
                    rhs = _step(
                        f, self.R(f.left, d, t), self.R(f.right, d, t),
                        self.R(f, d, t + 1),
                    )
                cons.append(ciff(self.R(f, d, t), rhs))
            # instant k loops back to the selected position, one pass deeper
            for i in range(1, k + 1):
                sel = cvar(vm.loop_selectors[i])
                if is_next:
                    wrap = self.R(f.sub, d + 1, i)
                else:
                    wrap = _step(
                        f, self.R(f.left, d, k), self.R(f.right, d, k),
                        self.R(f, d + 1, i),
                    )
                cons.append(cimp(sel, ciff(self.R(f, d, k), wrap)))
        # obligations alive at the end of the top copy are discharged inside
        # the loop (its crossing is a self-cycle)
        if isinstance(f, Until):
            for i in range(1, k + 1):
                witness = cor([self.R(f.right, nr, t) for t in range(i, k + 1)])
                cons.append(
                    cimp(cand((cvar(vm.loop_selectors[i]), self.R(f, nr, k))), witness)
                )
        elif isinstance(f, Release):
            for i in range(1, k + 1):
                always = cand([self.R(f.right, nr, t) for t in range(i, k + 1)])
                cons.append(
                    cimp(cand((cvar(vm.loop_selectors[i]), always)), self.R(f, nr, k))
                )

        if self.engine != "bi":
            return
        for e in range(1, nl + 1):
            for p in range(1, k + 1):
                sel = cvar(vm.pool_selectors[p])
                for t in range(p):
                    if is_next:
                        rhs = self.Lc(f.sub, e, t + 1)
                    else:
                        rhs = _step(
                            f, self.Lc(f.left, e, t), self.Lc(f.right, e, t),
                            self.Lc(f, e, t + 1),
                        )
                    cons.append(cimp(sel, ciff(self.Lc(f, e, t), rhs)))
                if is_next:
                    rhs = self.Lc(f.sub, e - 1, 0)
                else:
                    rhs = _step(
                        f, self.Lc(f.left, e, p), self.Lc(f.right, e, p),
                        self.Lc(f, e - 1, 0),
                    )
                cons.append(cimp(sel, ciff(self.Lc(f, e, p), rhs)))
        # future values agree at p and at the virtual predecessor of 0
        for p in range(1, k + 1):
            sel = cvar(vm.pool_selectors[p])
            if is_next:
                virt = self.Lc(f.sub, nl, 0)
            else:
                virt = _step(
                    f, self.Lc(f.left, nl, p), self.Lc(f.right, nl, p),
                    self.Lc(f, nl, 0),
                )
            cons.append(cimp(sel, ciff(self.Lc(f, nl, p), virt)))

    def _emit_past(self, f: Formula):
        vm, k, cons = self.vm, self.k, self.cons
        nr, nl = self.caps[f]
        is_yest = isinstance(f, (Yesterday, Zeta))
        for t in range(1, k + 1):
            if is_yest:
                rhs = self.R(f.sub, 0, t - 1)
            else:
                rhs = _step(
                    f, self.R(f.left, 0, t), self.R(f.right, 0, t),
                    self.R(f, 0, t - 1),
                )
            cons.append(ciff(self.R(f, 0, t), rhs))
        if self.engine == "mono":
            # time origin: yesterday is false, its dual true, and since/
            # trigger collapse to their right argument
            if isinstance(f, Yesterday):
                cons.append(cnot(self.R(f, 0, 0)))
            elif isinstance(f, Zeta):
                cons.append(self.R(f, 0, 0))
            else:
                cons.append(ciff(self.R(f, 0, 0), self.R(f.right, 0, 0)))
        else:
            # no origin: instant 0 wraps into the past loop
            for p in range(1, k + 1):
                sel = cvar(vm.pool_selectors[p])
                if is_yest:
                    wrap = self.Lc(f.sub, 1, p)
                else:
                    wrap = _step(
                        f, self.R(f.left, 0, 0), self.R(f.right, 0, 0),
                        self.Lc(f, 1, p),
                    )
                cons.append(cimp(sel, ciff(self.R(f, 0, 0), wrap)))

        # deeper traversals of the future loop (past values shift one pass)
        for d in range(1, nr + 1):
            for i in range(1, k + 1):
                sel = cvar(vm.loop_selectors[i])
                for t in range(i + 1, k + 1):
                    if is_yest:
                        rhs = self.R(f.sub, d, t - 1)
                    else:
                        rhs = _step(
                            f, self.R(f.left, d, t), self.R(f.right, d, t),
                            self.R(f, d, t - 1),
                        )
                    cons.append(cimp(sel, ciff(self.R(f, d, t), rhs)))
                if is_yest:
                    entry = self.R(f.sub, d - 1, k)
                else:
                    entry = _step(
                        f, self.R(f.left, d, i), self.R(f.right, d, i),
                        self.R(f, d - 1, k),
                    )
                cons.append(cimp(sel, ciff(self.R(f, d, i), entry)))
        # the top copy is past-consistent: the loop entry value agrees with
        # the value at the virtual successor of k
        for i in range(1, k + 1):
            sel = cvar(vm.loop_selectors[i])
            if is_yest:
                virt = self.R(f.sub, nr, k)
            else:
                virt = _step(
                    f, self.R(f.left, nr, i), self.R(f.right, nr, i),
                    self.R(f, nr, k),
                )
            cons.append(cimp(sel, ciff(self.R(f, nr, i), virt)))

        if self.engine != "bi":
            return
        for e in range(1, nl + 1):
            for p in range(1, k + 1):
                sel = cvar(vm.pool_selectors[p])
                for t in range(1, p + 1):
                    if is_yest:
                        rhs = self.Lc(f.sub, e, t - 1)
                    else:
                        rhs = _step(
                            f, self.Lc(f.left, e, t), self.Lc(f.right, e, t),
                            self.Lc(f, e, t - 1),
                        )
                    cons.append(cimp(sel, ciff(self.Lc(f, e, t), rhs)))
                if is_yest:
                    wrap = self.Lc(f.sub, e + 1, p)
                else:
                    wrap = _step(
                        f, self.Lc(f.left, e, 0), self.Lc(f.right, e, 0),
                        self.Lc(f, e + 1, p),
                    )
                cons.append(cimp(sel, ciff(self.Lc(f, e, 0), wrap)))
        # since/trigger are cyclic around the past loop at their deepest
        # backward copy: discharge the obligations there
        if isinstance(f, Since):
            for p in range(1, k + 1):
                witness = cor([self.Lc(f.right, nl, t) for t in range(p + 1)])
                cons.append(
                    cimp(
                        cand((cvar(vm.pool_selectors[p]), self.Lc(f, nl, 0))), witness
                    )
                )
        elif isinstance(f, Trigger):
            for p in range(1, k + 1):
                always = cand([self.Lc(f.right, nl, t) for t in range(p + 1)])
                cons.append(
                    cimp(
                        cand((cvar(vm.pool_selectors[p]), always)), self.Lc(f, nl, 0)
                    )
                )

    def _emit_assertions(self):
        vm, k, cons = self.vm, self.k, self.cons
        problem = self.problem
        for tr in problem.transitions:
            for t in range(k + 1):
                cons.append(self.R(tr, 0, t))
            nr, nl = self.caps[tr]
            # constraints with past content must also hold on later passes
            for d in range(1, nr + 1):
                for i in range(1, k + 1):
                    sel = cvar(vm.loop_selectors[i])
                    for t in range(i, k + 1):
                        cons.append(cimp(sel, self.R(tr, d, t)))
            for e in range(1, nl + 1):
                for p in range(1, k + 1):
                    sel = cvar(vm.pool_selectors[p])
                    for t in range(p + 1):
                        cons.append(cimp(sel, self.Lc(tr, e, t)))
        for gc in problem.global_constraints:
            for t in range(k + 1):
                cons.append(self.R(gc, 0, t))
        if problem.root is not None:
            vm.root_var = vm.var(problem.root, vm.assertion_instant)
            cons.append(cvar(vm.root_var))


# ---------------------------------------------------------------------------
# loop-free (completeness) mode
# ---------------------------------------------------------------------------


def _encode_loop_free(problem: CheckProblem) -> EncodedProblem:
    k = problem.k
    if problem.engine != "mono":
        raise EncodingError("loop-free mode is defined for the mono engine only")
    if k < 1:
        raise EncodingError(f"loop-free mode needs k >= 1, got {k}")
    vm = build_varmap(
        _all_formulas(problem), k, "mono", problem.atoms, with_selectors=False
    )
    vm.assertion_instant = 1
    V = vm.var
    cons: List = []

    def rvar(f, t):
        return cvar(V(f, t))

    for f in vm.partitions["bool"]:
        if isinstance(f, (TrueF, FalseF)):
            positive = isinstance(f, TrueF)
            for t in range(k + 1):
                cons.append(rvar(f, t) if positive else cnot(rvar(f, t)))
            continue
        for t in range(k + 1):
            cons.append(
                ciff(rvar(f, t), _bool_circuit(f, lambda c, t=t: rvar(c, t)))
            )

    # future operators fall back to finite-word semantics at the last instant
    for f in vm.partitions["future"]:
        for t in range(k):
            if isinstance(f, Next):
                rhs = rvar(f.sub, t + 1)
            else:
                rhs = _step(f, rvar(f.left, t), rvar(f.right, t), rvar(f, t + 1))
            cons.append(ciff(rvar(f, t), rhs))
        if isinstance(f, Next):
            cons.append(cnot(rvar(f, k)))
        else:
            cons.append(ciff(rvar(f, k), rvar(f.right, k)))

    for f in vm.partitions["past"]:
        for t in range(1, k + 1):
            if isinstance(f, (Yesterday, Zeta)):
                rhs = rvar(f.sub, t - 1)
            else:
                rhs = _step(f, rvar(f.left, t), rvar(f.right, t), rvar(f, t - 1))
            cons.append(ciff(rvar(f, t), rhs))
        if isinstance(f, Yesterday):
            cons.append(cnot(rvar(f, 0)))
        elif isinstance(f, Zeta):
            cons.append(rvar(f, 0))
        else:
            cons.append(ciff(rvar(f, 0), rvar(f.right, 0)))

    # transition constraints only where their lookahead fits the window
    for tr in problem.transitions:
        fdepth, _ = temporal_depth(tr)
        for t in range(0, k - fdepth + 1):
            cons.append(rvar(tr, t))
    for gc in problem.global_constraints:
        for t in range(k + 1):
            cons.append(rvar(gc, t))

    if problem.root is not None:
        vm.root_var = V(problem.root, vm.assertion_instant)
        cons.append(cvar(vm.root_var))

    cons.extend(_fact_constraints(problem, vm))

    # all-different: every pair of instants differs in at least one atom
    for s in range(k + 1):
        for t in range(s + 1, k + 1):
            diffs = [cnot(ciff(rvar(a, s), rvar(a, t))) for a in vm.atoms]
            cons.append(cor(diffs))

    return EncodedProblem(
        varmap=vm,
        formula=cand(cons) if cons else True,
        engine="mono",
        loop_free=True,
        source=problem,
    )
