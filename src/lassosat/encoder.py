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
chain InPool_t <-> InPool_{t+1} | P_t marks 1..p.  Until obligations
alive at the end of the loop are discharged inside it, `-v | OR_t (InLoop_t
& b_t)`, and Release is pinned by the dual `v | OR_t (InLoop_t & -b_t)`;
Since and Trigger do the same around the past loop through InPool.

Past-dependent subformulas change value between traversals of the loop, so
one variable per (subformula, instant) cannot be exact.  Such subformulas
are virtually unrolled: copy d of a variable tracks the d-th traversal, up
to copy pd, the past depth, and a read of a deeper traversal reads copy pd.
Atoms, temporal-free and pure-future subformulas keep a single copy.  The
bi engine mirrors this across the origin with backward copies of
future-dependent subformulas over the past loop, up to copy fd, the future
depth.  A copy is thus a loop pass (family "r") or a pool pass ("l"), copy
0 being both, and one rule per direction gives every recurrence neighbour
(`_neighbour`):

- a future node steps to t+1 and wraps from k through the loop start, a
  past node steps to t-1 and wraps from 0 through the pool start (or meets
  the mono origin), one pass deeper: at copy 0 and on the node's own
  family, loop passes for a future node and pool passes for a past one;
- a deeper copy of the other family reads ite(s_t, f(c-1, e), f(c, t+-1)),
  s_t being that loop's selector at t (L_t, P_t) and e the previous pass's
  edge instant (k for a loop pass, 0 for a pool pass); a step that leaves
  the selector positions 1..k is a don't-care and reads e.  Such a copy's
  values off its loop (before the loop start, after the pool start) are
  don't-cares that nothing reads, since constraints on deeper copies hold
  only where InLoop_t (InPool_t) does.

Copy pd is the last one that differs, by induction on pd.  The operands of
f have past depth below pd, so they repeat from copy pd-1 on.  f's loop
entry value in copy n+1 is then x_{n+1} = G(x_n) for every n >= pd-1, with
one monotone G on {0,1}: a constant or the identity, so G(G(x)) = G(x).
Hence x_{pd+1} = G(G(x_{pd-1})) = G(x_{pd-1}) = x_pd, and copy pd+1 repeats
copy pd at every instant of the loop.  The same step shows that the top
copy needs no row tying its loop entry to its own value at k: x_pd =
G(x_pd) is implied.  The backward copies stabilize at fd by the mirror
argument.

The loop-free mode is the same encoder run without selectors and with a
single copy of every subformula, so instant k has no successor and the
future operators take their finite-word value there.  It asserts
transitions only where their lookahead, the future depth, fits the window.

What makes a loop-free UNSAT mean "no loop-free path of this length
exists", i.e. the completeness bound is reached, is that all k+1 atom
state vectors be pairwise distinct.  `encode` does not write that
all-different constraint: eagerly it is O(k^2 * atoms) clauses, of which a
search breaks few.  The pipeline adds it lazily, after Een & Sorensson,
Temporal Induction by Incremental SAT Solving (BMC 2003): each time a
model gives two instants s < t the same state, `distinct(s, t)` appends
that they differ in some atom (4 * atoms + 1 clauses, two with one atom,
the empty clause with none), and the window is solved again.  That is
exact: UNSAT without some pairs is UNSAT with all of them, and a model
whose states are pairwise distinct satisfies every pair left out.  A pair
holds at every larger bound too, so it is never retracted.

A transition holds at every instant (where its lookahead fits), on every
pass of its copies.  The one-hot domain constraints of items and arrays are
transitions of depth (0, 0): pure-boolean, with no copies, asserted at
every instant of every window.

The loop-free encoding grows one instant at a time, after Een & Sorensson
(BMC 2003) and Heljanko, Junttila & Latvala, Incremental and Complete BMC
for Full PLTL (CAV 2005).  When instant t enters the window it takes its
block of ids (see below), resolves the aliases at t and appends, and never
retracts:

- the boolean and past definitions at t (past at 0: the time origin);
- the future definitions at t-1, which now has a successor;
- the transitions whose lookahead (future depth) now fits, and the root
  when t is the assertion instant (a window takes no history).

Only the future operators' finite-edge definitions at the last instant do
not last: they hold under an activation literal E_t, and the step to t+1
adds the unit -E_t.  The problem at bound k is the grown clauses, the
distinctness pairs added so far among them, plus the unit E_k
(`cnf.to_cnf`); the embedded solver instead keeps one live solver and
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

A loop-free window aliases what is known when an instant enters
(negations, iffs, yesterday and zeta, the origin); its `next` nodes keep
their variables, since their successor enters after them.

Ids come from one counter, the clause sink's (`ClauseSink.fresh`), and only
the entries that are not aliases take one (`_aliased` says which).  An
alias's slot stays 0 until the table is filled in postorder (`_fill`), so
every operand is resolved before its parents, with no recursion.  The
closure order is: the registry atoms, the other atoms of the formulas, then
their boolean, future and past nodes, each group in postorder.  The one
loop that sorts the closure into these groups also computes each member's
(future, past) nesting depth from its operands', and so its copy caps; a
registry atom no formula mentions has depth (0, 0).  A lasso encoding
allocates, in this order:

- the primary rows, instants 0..k of each closure member in closure order;
- the copy rows, per member in the same order, its loop passes before its
  pool passes;
- the loop selectors L1..Lk, then, on the bi engine, the pool selectors
  P1..Pk;
- as the clauses are written, the Tseitin gates (and/or, iff, ite), the
  selector chains, the loop- and pool-start literals and the constant.

A loop-free window allocates by instant, so that it can grow: when instant
t enters, it takes one slot per closure member, in closure order, and then
E_t, after everything the earlier instants took; the iff gates of a
distinctness pair take theirs when the pair is added.  Models decode through
VarMap.lit, and the selectors, which never alias, by their ids.

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
literals.
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
    children,
    closure,
)
from .trace import PartialHistory
from .varmap import VarMap

# ---------------------------------------------------------------------------
# encoder input / output
# ---------------------------------------------------------------------------


@dataclass
class CheckProblem:
    """A desugared, lowered verification problem, ready to encode."""

    k: int
    engine: str = "mono"
    root: Optional[Formula] = None
    # asserted at every instant whose lookahead fits (the one-hot domain
    # constraints among them)
    transitions: Tuple[Formula, ...] = ()
    atoms: Tuple[Atom, ...] = ()  # registry order; drives trace display
    facts: Optional[PartialHistory] = None
    loop_free: bool = False


@dataclass
class EncodedProblem:
    varmap: VarMap
    cnf: CnfInstance
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
    if problem.loop_free and facts.facts:
        raise EncodingError("history facts are meaningless in loop-free mode")
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


def _accessor(rows):
    """acc(f, c, t): f's literal at copy c, clamped to f's top copy, and
    instant t; it holds no encoder, so no reference cycle keeps one alive."""
    def acc(f: Formula, c: int, t: int) -> int:
        r = rows[f]
        row = r[c] if c < len(r) else r[-1]
        if not 0 <= t < len(row):
            raise EncodingError(f"instant {t} outside 0..{len(row) - 1}")
        return row[t]
    return acc


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
_PAST = frozenset((Yesterday, Zeta, Since, Trigger))
_TEMPORAL = _FUTURE | _PAST
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
        # operands before their parents: the order the aliases are resolved in
        roots = (problem.root,) if problem.root is not None else ()
        self.postorder = closure((*roots, *problem.transitions))
        # per node, its (future, past) nesting depth, its partition and the
        # top copy of each family, where traversal values start to repeat
        depth = self.depth = dict.fromkeys(problem.atoms, (0, 0))
        self.caps: Dict[Formula, Tuple[int, int]] = dict(depth)
        groups = {"atom": dict.fromkeys(problem.atoms), "bool": {}, "future": {}, "past": {}}
        for f in self.postorder:
            subs = [depth[g] for g in children(f)]
            fd = max((d[0] for d in subs), default=0)
            pd = max((d[1] for d in subs), default=0)
            cls = type(f)
            if cls in _FUTURE:
                fd, kind = fd + 1, "future"
            elif cls in _PAST:
                pd, kind = pd + 1, "past"
            else:
                kind = "atom" if cls is Atom else "bool"
            depth[f] = fd, pd
            groups[kind][f] = None
            self.caps[f] = (0, 0) if self.loop_free else (pd, fd if engine == "bi" else 0)
        order = tuple(f for group in groups.values() for f in group)
        # the loop-free window starts empty, and instants enter it one by one
        self.k = k = -1 if self.loop_free else k
        rrows = {f: [[]] for f in order}
        vm = self.vm = VarMap(
            k=k, engine=engine, closure=order, atoms=tuple(groups["atom"]), rrows=rrows,
            lrows={f: [rows[0]] for f, rows in rrows.items()}, copy_base={},
            loop_selectors={}, pool_selectors={}, max_var=0,
            partitions={name: tuple(groups[name]) for name in ("bool", "future", "past")},
            assertion_instant=1 if engine == "mono" else 0,
        )
        # per family, "r" for the loop passes and "l" for the pool passes:
        # the literal rows, their accessor and the selectors of the loop
        self.rows = {"r": vm.rrows, "l": vm.lrows}
        self.acc = {family: _accessor(rows) for family, rows in self.rows.items()}
        self.selectors = {"r": vm.loop_selectors, "l": vm.pool_selectors}
        sink = self.sink = ClauseSink(0)
        for f in order:
            rrows[f][0].extend(self._slot(f, "r", 0, t) for t in range(k + 1))
        for f in order:
            for family, _, top in self._passes(f):
                for c in range(1, top + 1):
                    first = sink.next_var
                    row = [self._slot(f, family, c, t) for t in range(k + 1)]
                    self.rows[family][f].append(row)
                    if sink.next_var > first:
                        vm.copy_base[(f, family, c)] = first
        for t in range(1, k + 1):
            vm.loop_selectors[t] = sink.fresh()
        if engine == "bi":
            for t in range(1, k + 1):
                vm.pool_selectors[t] = sink.fresh()
        vm.max_var = sink.next_var - 1
        self.starts: Dict[tuple, int] = {}  # loop- and pool-start literals
        self.true: Optional[int] = None  # the shared constant literal
        self.facts, self.markers = _history(problem, vm)
        self.activation: Optional[int] = None

    def _passes(self, f: Formula):
        """(family, first copy, top copy) of f's loop and pool passes; the
        pool passes start at copy 1, as lrows[f][0] is rrows[f][0]."""
        nr, nl = self.caps[f]
        return ("r", 0, nr), ("l", 1, nl)

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

    def _slot(self, f: Formula, family: str, copy: int, t: int) -> int:
        """A new slot of the table: 0 for an alias (`_fill` writes it),
        else the next id."""
        return 0 if self._aliased(f, family, copy, t) else self.sink.fresh()

    def _alias(self, f: Formula, family: str, c: int, t: int) -> int:
        """The literal an aliased entry stands for: its expansion folded to
        one literal (a gate for iff, the constant for an empty expansion)."""
        if type(f) in _TEMPORAL:
            op, lits = self._rec(f, family, c, t)
        else:
            acc = self.acc[family]
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
            for family, first, top in self._passes(f):
                rows = self.rows[family][f]
                for c in range(first, top + 1):
                    row = rows[c]
                    for t in instants:
                        if not row[t]:
                            row[t] = self._alias(f, family, c, t)

    def _rec(self, f: Formula, family: str, c: int, t: int):
        """The fixpoint expansion of temporal entry (f, copy c, instant t).

        Returns (op, operand literals), op being "and" or "or"; an empty
        "and" is true and an empty "or" false.
        """
        nb = self._neighbour(f, family, c, t)
        cls = type(f)
        if cls in _SHIFT:
            if nb is None:
                return ("and" if cls in _WEAK else "or"), []
            return "and", [nb]
        acc = self.acc[family]
        b = acc(f.right, c, t)
        if nb is None:  # until/since are strong, release/trigger weak: both give b
            return "and", [b]
        a = acc(f.left, c, t)
        if cls in _UNTIL_LIKE:
            return "or", [b, self.sink.gate("and", [a, nb])]
        return "and", [b, self.sink.gate("or", [a, nb])]

    def _start(self, family: str, g: Formula, c: int) -> int:
        """One literal for g's copy c at the loop start (family "r": the
        successor of instant k) or at the pool start ("l": the predecessor
        of instant 0): -sel | -y | g(c, i) and -sel | y | -g(c, i) for each
        position i and its selector."""
        rows = self.rows[family][g]
        c = min(c, len(rows) - 1)
        key = (family, g, c)
        y = self.starts.get(key)
        if y is None:
            y = self.starts[key] = self.sink.fresh()
            row, clause = rows[c], self.sink.clause
            for i, s in self.selectors[family].items():
                clause([-s, -y, row[i]])
                clause([-s, y, -row[i]])
        return y

    def _neighbour(self, f: Formula, family: str, c: int, t: int) -> Optional[int]:
        """The literal at the recurrence neighbour of temporal entry (f,
        copy c, instant t): of f's operand for a shift, else of f; None
        beyond a finite edge.  Past entries of a loop-free window included."""
        g = f.sub if type(f) in _SHIFT else f
        own, u = ("r", t + 1) if type(f) in _FUTURE else ("l", t - 1)
        k = self.k
        if c == 0 or family == own:
            if 0 <= u <= k:
                return self.acc[own](g, c, u)
            # k steps to the loop start, 0 to the pool start, one pass deeper
            return self._start(own, g, c + 1) if self.selectors[own] else None
        # a deeper pass of the other loop: the previous pass's edge instant
        # where that loop's selector holds at t, the step elsewhere; a step
        # off the selector positions 1..k would read a don't-care
        acc = self.acc[family]
        wrap = acc(g, c - 1, k if family == "r" else 0)
        if not 1 <= u <= k:
            return wrap
        s = self.selectors[family].get(t)
        if s is None:
            return acc(g, c, u)
        return self.sink.gate("ite", [s, wrap, acc(g, c, u)])

    def _define(self, f: Formula, family: str, c: int, t: int) -> None:
        """The unguarded definition of temporal entry (f, copy c, instant
        t), unless the entry is an alias."""
        if not self._aliased(f, family, c, t):
            self.sink.define(self.acc[family](f, c, t), *self._rec(f, family, c, t))

    def encode(self) -> EncodedProblem:
        vm, sink = self.vm, self.sink
        if self.loop_free:
            while self.k < self.problem.k:
                self._enter_instant()
            return EncodedProblem(
                varmap=vm, cnf=sink.instance(), activation=self.activation, encoder=self
            )

        # InLoop_t holds from the loop start to k, InPool_t from 1 to the
        # pool start; per family, (instant, chain literal) of every instant
        # that can lie on the loop, and instant 0 always lies on the past loop
        positions = range(1, self.k + 1)
        in_loop = _selector_chain(sink, vm.loop_selectors, positions)
        in_pool = (
            _selector_chain(sink, vm.pool_selectors, reversed(positions))
            if vm.pool_selectors else {}
        )
        self.loops = {"r": list(in_loop.items()), "l": [(0, None), *in_pool.items()]}

        instants = range(self.k + 1)
        self._fill(instants)
        for f in vm.partitions["bool"]:
            self._emit_bool(f, instants)
        for f in (*vm.partitions["future"], *vm.partitions["past"]):
            self._emit_temporal(f)

        self._emit_assertions()
        for t, atom, polarity in self.facts:
            x = vm.lit(atom, t)
            sink.clause([x if polarity else -x])
        for lit in self.markers:
            sink.clause([lit])
        return EncodedProblem(varmap=vm, cnf=sink.instance())

    def _enter_instant(self):
        """Loop-free: instant k+1 enters the window; append its clauses."""
        vm, sink, R = self.vm, self.sink, self.acc["r"]
        clause = sink.clause
        t = self.k = vm.k = self.k + 1
        for f in vm.closure:
            vm.rrows[f][0].append(self._slot(f, "r", 0, t))
        vm.max_var = sink.next_var - 1
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
            op, lits = self._rec(f, "r", 0, t)
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
            start = t - self.depth[tr][0]  # the instant whose lookahead ends at t
            if start >= 0:
                clause([R(tr, 0, start)])
        if t == vm.assertion_instant and problem.root is not None:
            vm.root_lit = vm.lit(problem.root, t)
            clause([vm.root_lit])

    def distinct(self, s: int, t: int) -> None:
        """Loop-free: append that instants s and t differ in at least one
        atom; with no atoms that is the empty clause."""
        sink, R, atoms = self.sink, self.acc["r"], self.vm.atoms
        if len(atoms) == 1:  # a_s <-> -a_t: two clauses, no gate
            sink.define(R(atoms[0], 0, s), "and", [-R(atoms[0], 0, t)])
        else:
            sink.clause([-sink.gate("iff", [R(a, 0, s), R(a, 0, t)]) for a in atoms])

    def _emit_bool(self, f: Formula, instants):
        if self._aliased(f, "r", 0, 0):  # a boolean node aliases everywhere or nowhere
            return
        define = self.sink.define
        for family, first, top in self._passes(f):
            acc = self.acc[family]
            for c in range(first, top + 1):
                for t in instants:
                    define(acc(f, c, t), *_connective(f, lambda g: acc(g, c, t)))

    def _emit_temporal(self, f: Formula):
        k, define, sink = self.k, self._define, self.sink
        cls = type(f)
        own = "r" if cls in _FUTURE else "l"
        # copy 0 and the own family end with the wrap instant; the other
        # family's passes span the instants that can lie on their loop
        own_span = range(k + 1) if own == "r" else (*range(1, k + 1), 0)
        span = {"r": range(1, k + 1), "l": range(k + 1)}
        for family, first, top in self._passes(f):
            for c in range(first, top + 1):
                for t in own_span if c == 0 or family == own else span[family]:
                    define(f, family, c, t)
            if family != own or cls in _SHIFT:
                continue
            # an obligation alive at the wrap of the top copy is discharged
            # inside the loop (its crossing is a self-cycle): some looping
            # instant has the until's (since's) right operand, or one lacks
            # the release's (trigger's)
            sign = 1 if cls in _UNTIL_LIKE else -1
            acc = self.acc[family]
            lits = [-sign * acc(f, top, k if family == "r" else 0)]
            for t, chain in self.loops[family]:
                b = sign * acc(f.right, top, t)
                lits.append(b if chain is None else sink.gate("and", [chain, b]))
            sink.clause(lits)

    def _emit_assertions(self):
        vm, k, clause, R = self.vm, self.k, self.sink.clause, self.acc["r"]
        problem = self.problem
        for tr in problem.transitions:
            for t in range(k + 1):
                clause([R(tr, 0, t)])
            # constraints with past content must also hold on later passes
            for family, _, top in self._passes(tr):
                acc = self.acc[family]
                for c in range(1, top + 1):
                    for t, chain in self.loops[family]:
                        x = acc(tr, c, t)
                        clause([x] if chain is None else [-chain, x])
        if problem.root is not None:
            vm.root_lit = vm.lit(problem.root, vm.assertion_instant)
            clause([vm.root_lit])
