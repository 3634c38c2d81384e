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
trigger.

The encoding is linear in k, after Biere, Heljanko, Junttila, Latvala &
Schuppan, Linear Encodings of Bounded LTL Model Checking (LMCS 2006), with
the bounded past unrolling of Latvala, Biere, Heljanko & Junttila, Simple
Is Better: Efficient Bounded Model Checking for Past LTL (VMCAI 2005).
Exactly one selector is chosen through the chain InLoop_t <-> InLoop_{t-1}
| L_t with L_t -> -InLoop_{t-1} and the unit InLoop_k (InLoop_1 is L_1),
so InLoop_t holds exactly on the loop i..k; on the bi engine the mirror
chain InPool_t <-> InPool_{t+1} | P_t marks 1..p.  The chain literals are
Tseitin variables above VarMap's last id, so models decode positionally
from the selectors.  Until obligations alive at the end of the loop are
discharged inside it, `-v | OR_t (InLoop_t & b_t)`, and Release is pinned
by the dual `v | OR_t (InLoop_t & -b_t)`; Since and Trigger do the same
around the past loop through InPool.

Past-dependent subformulas change value between traversals of the loop, so
one variable per (subformula, instant) cannot be exact.  Such subformulas
are virtually unrolled: copy d of a variable tracks the d-th traversal, up
to copy pd, the past depth, and a read of a deeper traversal reads copy pd.
Atoms, temporal-free and pure-future subformulas keep a single copy.  A
deeper copy has one unguarded definition per instant, whose recurrence
neighbour is ite(L_t, R(f, d-1, k), R(f, d, t-1)): the previous traversal's
last instant at the loop start, the previous instant inside the loop.  Its
values before the loop start are don't-cares that nothing reads, since
constraints on deeper copies hold only where InLoop_t does.

Copy pd is the last one that differs, by induction on pd.  The operands of
f have past depth below pd, so they repeat from copy pd-1 on.  f's loop
entry value in copy n+1 is then x_{n+1} = G(x_n) for every n >= pd-1, with
one monotone G on {0,1}: a constant or the identity, so G(G(x)) = G(x).
Hence x_{pd+1} = G(G(x_{pd-1})) = G(x_{pd-1}) = x_pd, and copy pd+1 repeats
copy pd at every instant of the loop.  The same step shows that the top
copy needs no row tying its loop entry to its own value at k: x_pd =
G(x_pd) is implied.  The bi engine mirrors the scheme with backward copies
of future-dependent subformulas across the past loop, up to copy fd, the
future depth, with neighbour ite(P_t, Lc(f, e-1, 0), Lc(f, e, t+1)),
don't-cares after the pool start and constraints under InPool_t.

The loop-free mode is the same encoder run without selectors and with a
single copy of every subformula, so instant k has no successor and the
future operators take their finite-word value there.  It also forces all
k+1 atom state vectors to be pairwise distinct, which makes UNSAT mean "no
loop-free path of this length exists", i.e. the completeness bound is
reached, and asserts transitions only where their lookahead fits the window.

The loop-free encoding grows one instant at a time, after Een & Sorensson,
Temporal Induction by Incremental SAT Solving (BMC 2003), and Heljanko,
Junttila & Latvala, Incremental and Complete BMC for Full PLTL (CAV 2005).
When instant t enters the window it takes its variable block (VarMap's
instant layout), resolves the aliases at t and appends, and never retracts:

- the boolean and past definitions at t (past at 0: the time origin);
- the future definitions at t-1, which now has a successor;
- the transitions whose lookahead now fits, the global constraints at t,
  the root when t is the assertion instant, and the history facts at t;
- the distinctness of instant t from each earlier one.

Only the future operators' finite-edge definitions at the last instant do
not last: they hold under an activation literal E_t, and the step to t+1
adds the unit -E_t.  The problem at bound k is the grown clauses plus the
unit E_k (`cnf.to_cnf`); find_bound instead keeps one live solver and
assumes E_k, so each clause is built and loaded once.

Each value is named once.  The literal table (VarMap) holds one literal per
(subformula, copy, instant) entry, and an entry whose expansion folds to a
single literal, or to a gate the encoder builds anyway, is that literal and
owns no variable and no defining clauses:

- `not g` is -g, and `iff` is its iff gate, at every copy and instant; a
  true/false node is the one shared constant literal, or its negation;
- `next g` at copy d and t < k is g(d, t+1);
- `yesterday g` and `zeta g` at copy 0 and t >= 1 are g(0, t-1), and on a
  deeper copy the ite neighbour itself (g(d-1, k) at t = 1);
- at the mono origin yesterday and zeta are the constant (false, true) and
  since and trigger their right operand;
- the bi engine's backward copies mirror these rules.

Allocation gives ids only to the other entries (`_aliased` says which), in
closure order, and the table is filled afterwards in postorder (`_fill`),
so every operand is resolved before its parents, with no recursion.  A
loop-free window aliases what is known when an instant enters (negations,
iffs, yesterday and zeta, the origin); its `next` nodes keep their
variables, since their successor enters after them.

The successor of instant k is the loop start.  For each (operand g, copy
c) that a future entry reads there, one loop-start literal y has
`-L_i | -y | g(c, i)` and `-L_i | y | -g(c, i)` for i = 1..k, so the future
copy at k is one unguarded definition whose neighbour is y, and `next` at k
is y itself.  The bi engine mirrors it: one pool-start literal z(g, e)
under P_p is the predecessor of instant 0, read by the past nodes at
instant 0 of the primary row and of the backward copies.

Every rule writes its clauses into one cnf.ClauseSink as it goes, in a
single pass.  A subformula variable is defined by `var <-> and/or(...)`
clauses, and no definition is guarded by a selector: the selectors enter
only through their chains, the ite neighbours and the loop- and pool-start
literals.  Unnamed inner gates (and/or, iff, ite), the loop- and pool-start
literals and the constant get memoized Tseitin variables above the VarMap's
last id (in a loop-free window: above the newest instant block), so models
decode through VarMap.lit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from .cnf import ClauseSink, CnfInstance
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
    # loop-free: E_k, which switches on the finite-edge definitions at the
    # last instant; the problem at k is `cnf` plus the unit [E_k]
    activation: Optional[int] = None
    encoder: Optional["_Encoder"] = field(default=None, repr=False, compare=False)


def encode(problem: CheckProblem, prefix: Optional[EncodedProblem] = None) -> EncodedProblem:
    """Compile a problem into clauses, loopy or loop-free.

    Given `prefix`, the loop-free encoding of the same problem at a bound no
    larger than problem.k, grow that encoding to problem.k instead: its
    varmap and clause list grow in place and are shared with the result.
    """
    if prefix is None:
        return _Encoder(problem).encode()
    encoder = prefix.encoder
    if (
        encoder is None
        or replace(problem, k=encoder.problem.k) != encoder.problem
        or problem.k < encoder.k
    ):
        raise EncodingError("only a loop-free encoding of the same problem grows")
    encoder.problem = problem
    return encoder.encode()


def _all_formulas(problem: CheckProblem):
    forms = []
    if problem.root is not None:
        forms.append(problem.root)
    forms.extend(problem.transitions)
    forms.extend(problem.global_constraints)
    return forms


def _selector_chain(sink: ClauseSink, selectors: Dict[int, int], order) -> Dict[int, int]:
    """Exactly one selector, in O(k) clauses: position -> chain literal.

    Along `order`, c_t <-> c_{t'} | s_t with t' the previous position (c
    of the first is its selector), s_t -> -c_{t'}, and the unit c of the
    last: a chain literal holds from the selected position on.
    """
    chain: Dict[int, int] = {}
    prev = None
    for t in order:
        s = selectors[t]
        if prev is None:
            prev = s
        else:
            sink.clause([-s, -prev])
            prev = sink.gate("or", [prev, s])
        chain[t] = prev
    sink.clause([prev])
    return chain


def _history(problem: CheckProblem, vm: VarMap):
    """The history facts (instant, atom, polarity), checked against the
    problem, and the selector literals its loop and pool markers pin."""
    facts = problem.facts
    if facts is None:
        return [], []
    for instant, atom, _ in facts.facts:
        if instant > problem.k:
            raise EncodingError(
                f"history fact at time {instant} exceeds the bound k={problem.k}"
            )
        if atom not in vm.rrows:
            raise EncodingError(f"history atom {atom.display} is not registered")
    out = []
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
    return facts.facts, out


def _connective(f: Formula, operand):
    """(op, operand literals) of a boolean node, given a child -> literal map."""
    if isinstance(f, Not):
        return "and", [-operand(f.sub)]
    if isinstance(f, (TrueF, FalseF)):
        return ("and" if isinstance(f, TrueF) else "or"), []
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
_FUTURE = frozenset((Next, Until, Release))
_TEMPORAL = _FUTURE | frozenset((Yesterday, Zeta, Since, Trigger))
# boolean nodes that are one literal of their operands, or a gate over them
_BOOL_ALIASES = frozenset((Not, Iff, TrueF, FalseF))


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
        forms = _all_formulas(problem)
        # operands before their parents: the order the aliases are resolved in
        self.postorder = closure(forms)
        # the top copy of each family: traversal values repeat from there
        self.caps: Dict[Formula, Tuple[int, int]] = {}
        for f in self.postorder:
            fd, pd = temporal_depth(f)
            self.caps[f] = (0, 0) if self.loop_free else (pd, fd if engine == "bi" else 0)
        self.vm = build_varmap(
            forms, k, engine, problem.atoms, copies=self.caps,
            loop_free=self.loop_free, aliased=self._aliased,
        )
        self.vm.assertion_instant = 1 if engine == "mono" else 0
        # the loop-free window starts empty, and instants enter it one by one
        self.k = self.vm.k
        self.rrows, self.lrows = self.vm.rrows, self.vm.lrows
        self.sink = ClauseSink(self.vm.max_var)
        self.starts: Dict[tuple, int] = {}  # loop- and pool-start literals
        self.true: Optional[int] = None  # the shared constant literal
        self.facts, self.markers = _history(problem, self.vm)
        self.activation: Optional[int] = None

    # copy accessors: d/e are clamped to the formula's own stabilized copy
    def R(self, f: Formula, d: int, t: int) -> int:
        if not 0 <= t <= self.k:
            raise EncodingError(f"instant {t} outside 0..{self.k}")
        rows = self.rrows[f]
        return (rows[d] if d < len(rows) else rows[-1])[t]

    def Lc(self, f: Formula, e: int, t: int) -> int:
        if not 0 <= t <= self.k:
            raise EncodingError(f"instant {t} outside 0..{self.k}")
        rows = self.lrows[f]
        return (rows[e] if e < len(rows) else rows[-1])[t]

    def _aliased(self, f: Formula, family: str, copy: int, t: int) -> bool:
        """Whether entry (f, copy, t) is a literal of other entries, or a
        gate the encoder builds anyway, and so owns no variable."""
        cls = type(f)
        if cls in _BOOL_ALIASES:
            return True
        if cls is And or cls is Or:
            return len(f.items) < 2
        if cls is Next:
            # in a loop-free window the successor enters after the node
            return not self.loop_free
        if cls is Yesterday or cls is Zeta:
            # instant 0 of a deeper loop pass precedes every loop start: a
            # don't-care that keeps its id
            return t > 0 or copy == 0 or family == "l"
        if cls is Since or cls is Trigger:
            return t == 0 and copy == 0 and self.engine == "mono"  # the origin: b
        return False

    def _alias(self, f: Formula, family: str, c: int, t: int) -> int:
        """The literal an aliased entry stands for: its expansion folded to
        one literal (a gate for iff, the constant for an empty expansion)."""
        acc = self.R if family == "r" else self.Lc
        if type(f) in _TEMPORAL:
            op, lits = self._rec(acc, f, c, t, self._neighbour(f, family, c, t))
        else:
            op, lits = _connective(f, lambda g: acc(g, c, t))
            if op == "iff":
                return self.sink.gate("iff", lits)
        if len(lits) > 1:
            raise EncodingError(f"internal error: {f!r} aliased to {op} of {len(lits)} operands")
        if lits:
            return lits[0]
        if self.true is None:
            self.true = self.sink.fresh()
            self.sink.clause([self.true])
        return self.true if op == "and" else -self.true

    def _fill(self, instants) -> None:
        """Write the aliases at `instants` into the literal table, each
        operand's rows before its parents'."""
        for f in self.postorder:
            # lrows[f][0] is the primary row, filled as rrows[f][0]
            for family, rows, first in (("r", self.rrows[f], 0), ("l", self.lrows[f], 1)):
                for c in range(first, len(rows)):
                    row = rows[c]
                    for t in instants:
                        if not row[t]:
                            row[t] = self._alias(f, family, c, t)

    def _rec(self, acc, f: Formula, d: int, t: int, nb):
        """The fixpoint expansion of temporal node f at copy d, instant t.

        Returns (op, operand literals), op being "and" or "or"; an empty
        "and" is true and an empty "or" false.  `acc(g, copy, instant)` is R
        or Lc, and `nb(g)` is g's literal at the recurrence neighbour (see
        `_neighbour`); nb None puts the neighbour beyond a finite edge of the
        word, where it is false for the strong operators and true for the
        weak duals.
        """
        cls = type(f)
        if cls in _SHIFT:
            if nb is None:
                return ("and" if cls in _WEAK else "or"), []
            return "and", [nb(f.sub)]
        b = acc(f.right, d, t)
        if nb is None:  # until/since are strong, release/trigger weak: both give b
            return "and", [b]
        a, nxt = acc(f.left, d, t), nb(f)
        if cls in _UNTIL_LIKE:
            return "or", [b, self.sink.gate("and", [a, nxt])]
        return "and", [b, self.sink.gate("or", [a, nxt])]

    @staticmethod
    def _at(acc, d: int, t: int):
        """The neighbour copy d at instant t."""
        return lambda g: acc(g, d, t)

    def _step(self, acc, s: Optional[int], wrap, step):
        """The neighbour (copy, instant) `wrap` where selector s holds, and
        `step` elsewhere.  s None never holds; step None lies outside the
        word, where only a position that wraps is read."""
        if s is None:
            return self._at(acc, *step)
        if step is None:
            return self._at(acc, *wrap)
        (wd, wt), (sd, st) = wrap, step
        gate = self.sink.gate
        return lambda g: gate("ite", [s, acc(g, wd, wt), acc(g, sd, st)])

    def _start(self, family: str, g: Formula, c: int) -> int:
        """One literal for g's copy c at the loop start (family "r": the
        successor of instant k) or at the pool start ("l": the predecessor
        of instant 0): -sel | -y | g(c, i) and -sel | y | -g(c, i) for each
        position i and its selector."""
        rows = self.rrows[g] if family == "r" else self.lrows[g]
        c = min(c, len(rows) - 1)
        key = (family, g, c)
        y = self.starts.get(key)
        if y is None:
            y = self.starts[key] = self.sink.fresh()
            row, clause = rows[c], self.sink.clause
            vm = self.vm
            for i, s in (vm.loop_selectors if family == "r" else vm.pool_selectors).items():
                clause([-s, -y, row[i]])
                clause([-s, y, -row[i]])
        return y

    def _neighbour(self, f: Formula, family: str, c: int, t: int):
        """The recurrence neighbour of temporal entry (f, copy c, instant
        t), as `_rec` takes it; past entries of a loop-free window included."""
        k, R, Lc, vm = self.k, self.R, self.Lc, self.vm
        if type(f) in _FUTURE:
            if family == "l":
                # backward passes: the pool start wraps to instant 0 of the
                # previous pass, and instant k has no other successor there
                return self._step(
                    Lc, vm.pool_selectors.get(t), (c - 1, 0), (c, t + 1) if t < k else None
                )
            if t < k:
                return self._at(R, c, t + 1)
            # instant k loops back to the loop start, one pass deeper
            return lambda g: self._start("r", g, c + 1)
        if family == "r" and c:
            # deeper traversals of the future loop (past values shift one
            # pass); values before the loop start are don't-cares
            return self._step(R, vm.loop_selectors[t], (c - 1, k), (c, t - 1) if t > 1 else None)
        if t:
            return self._at(R if family == "r" else Lc, c, t - 1)
        if not vm.pool_selectors:
            return None  # the mono origin, a finite edge
        # bi engine: instant 0 wraps into the past loop, one pass deeper
        return lambda g: self._start("l", g, c + 1)

    def _define(self, f: Formula, family: str, c: int, t: int) -> None:
        """The unguarded definition of temporal entry (f, copy c, instant
        t), unless the entry is an alias."""
        if not self._aliased(f, family, c, t):
            acc = self.R if family == "r" else self.Lc
            self.sink.define(
                acc(f, c, t), *self._rec(acc, f, c, t, self._neighbour(f, family, c, t))
            )

    def encode(self) -> EncodedProblem:
        vm, sink = self.vm, self.sink
        if self.loop_free:
            while self.k < self.problem.k:
                self._enter_instant()
            return EncodedProblem(
                varmap=vm, cnf=sink.instance(), engine=self.engine, loop_free=True,
                activation=self.activation, encoder=self,
            )

        # InLoop_t holds from the loop start to k, InPool_t from 1 to the
        # pool start (instant 0 is always in the past loop)
        positions = range(1, self.k + 1)
        self.in_loop = _selector_chain(sink, vm.loop_selectors, positions)
        self.in_pool = (
            _selector_chain(sink, vm.pool_selectors, reversed(positions))
            if vm.pool_selectors else {}
        )

        instants = range(self.k + 1)
        self._fill(instants)
        for f in vm.partitions["bool"]:
            self._emit_bool(f, instants)
        for f in vm.partitions["future"]:
            self._emit_future(f)
        for f in vm.partitions["past"]:
            self._emit_past(f)

        self._emit_assertions()
        for t, atom, polarity in self.facts:
            x = vm.lit(atom, t)
            sink.clause([x if polarity else -x])
        for lit in self.markers:
            sink.clause([lit])
        return EncodedProblem(
            varmap=vm,
            cnf=sink.instance(),
            engine=self.engine,
            loop_free=False,
        )

    def _enter_instant(self):
        """Loop-free: instant k+1 enters the window; append its clauses."""
        vm, sink, R = self.vm, self.sink, self.R
        clause, define = sink.clause, sink.define
        sink.fresh(vm.add_instant(sink.next_var, self._aliased))
        t = self.k = vm.k
        if t:  # instant t-1 gets a successor: its finite edge is gone
            clause([-self.activation])
        edge = self.activation = sink.fresh()
        self._fill((t,))

        for f in vm.partitions["bool"]:
            self._emit_bool(f, (t,))
        for f in vm.partitions["future"]:
            if t:
                self._define(f, "r", 0, t - 1)
            # edge -> (f at t <-> its finite-word value: false, true or b)
            op, lits = self._rec(R, f, 0, t, None)
            v = R(f, 0, t)
            if lits:
                clause([-edge, -v, lits[0]])
                clause([-edge, v, -lits[0]])
            else:
                clause([-edge, v if op == "and" else -v])
        for f in vm.partitions["past"]:
            # instant 0 is the time origin, a finite edge for good
            self._define(f, "r", 0, t)

        problem = self.problem
        for tr in problem.transitions:
            start = t - temporal_depth(tr)[0]  # the instant whose lookahead ends at t
            if start >= 0:
                clause([R(tr, 0, start)])
        for gc in problem.global_constraints:
            clause([R(gc, 0, t)])
        if t == vm.assertion_instant and problem.root is not None:
            vm.root_lit = vm.lit(problem.root, t)
            clause([vm.root_lit])
        for instant, atom, polarity in self.facts:
            if instant == t:
                x = vm.lit(atom, t)
                clause([x if polarity else -x])

        # instant t differs from every earlier one in at least one atom;
        # with no atoms that is the empty clause
        atoms = vm.atoms
        for s in range(t):
            if len(atoms) == 1:  # a_s <-> -a_t: two clauses, no gate
                define(R(atoms[0], 0, s), "and", [-R(atoms[0], 0, t)])
            else:
                clause([-sink.gate("iff", [R(a, 0, s), R(a, 0, t)]) for a in atoms])

    def _emit_bool(self, f: Formula, instants):
        if self._aliased(f, "r", 0, 0):  # a boolean node aliases everywhere or nowhere
            return
        define, R, Lc = self.sink.define, self.R, self.Lc
        nr, nl = self.caps[f]
        for d in range(nr + 1):
            for t in instants:
                define(R(f, d, t), *_connective(f, lambda c: R(c, d, t)))
        for e in range(1, nl + 1):
            for t in instants:
                define(Lc(f, e, t), *_connective(f, lambda c: Lc(c, e, t)))

    def _emit_future(self, f: Formula):
        k, R, sink, define = self.k, self.R, self.sink, self._define
        nr, nl = self.caps[f]
        for d in range(nr + 1):
            for t in range(k + 1):
                define(f, "r", d, t)
        # obligations alive at the end of the top copy are discharged inside
        # the loop (its crossing is a self-cycle): some looping instant has
        # the until's right operand, or one lacks the release's
        if type(f) in (Until, Release):
            sign = 1 if type(f) is Until else -1
            sink.clause([-sign * R(f, nr, k)] + [
                sink.gate("and", [c, sign * R(f.right, nr, t)]) for t, c in self.in_loop.items()
            ])

        # bi engine: backward passes through the past loop; values after the
        # pool start are don't-cares that nothing reads
        for e in range(1, nl + 1):
            for t in range(k + 1):
                define(f, "l", e, t)

    def _emit_past(self, f: Formula):
        k, Lc, sink, define = self.k, self.Lc, self.sink, self._define
        nr, nl = self.caps[f]
        # instant 0 has no predecessor in the word's window: it is the mono
        # origin, or on the bi engine it wraps into the past loop
        for t in (*range(1, k + 1), 0):
            define(f, "r", 0, t)
        for d in range(1, nr + 1):
            for t in range(1, k + 1):
                define(f, "r", d, t)

        # bi engine: backward passes through the past loop
        for e in range(1, nl + 1):
            for t in (*range(1, k + 1), 0):
                define(f, "l", e, t)
        # since/trigger are cyclic around the past loop at their deepest
        # backward copy: some instant of the past loop has the since's right
        # operand, or one lacks the trigger's
        if type(f) in (Since, Trigger):
            sign = 1 if type(f) is Since else -1
            sink.clause([-sign * Lc(f, nl, 0), sign * Lc(f.right, nl, 0)] + [
                sink.gate("and", [c, sign * Lc(f.right, nl, t)]) for t, c in self.in_pool.items()
            ])

    def _emit_assertions(self):
        vm, k, clause, R, Lc = self.vm, self.k, self.sink.clause, self.R, self.Lc
        problem = self.problem
        for tr in problem.transitions:
            for t in range(k + 1):
                clause([R(tr, 0, t)])
            nr, nl = self.caps[tr]
            # constraints with past content must also hold on later passes
            for d in range(1, nr + 1):
                for t, c in self.in_loop.items():
                    clause([-c, R(tr, d, t)])
            for e in range(1, nl + 1):
                clause([Lc(tr, e, 0)])
                for t, c in self.in_pool.items():
                    clause([-c, Lc(tr, e, t)])
        for gc in problem.global_constraints:
            for t in range(k + 1):
                clause([R(gc, 0, t)])
        if problem.root is not None:
            vm.root_lit = vm.lit(problem.root, vm.assertion_instant)
            clause([vm.root_lit])
