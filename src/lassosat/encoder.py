"""Compile core formulas at bound k straight into CNF clauses.

Instants run 0..k.  The mono-infinite engine requires exactly one future
loop selector L_i (1 <= i <= k), read as "the successor of instant k is
instant i", so a model denotes the infinite word u[0..i-1] (u[i..k])^w.
The bi-infinite engine adds exactly one past selector P_p and anchors the
word ^w(u[0..p]) u[0..k] (u[i..k])^w at absolute instant 0.  Where the
formulas read back a bounded number of instants, the same word is encoded
unrolled T instants further, over 0..k+T (look-back unrolling, below);
everything said here of k then holds of k+T on the future loop.  Where the
bi engine's past operators read ahead a bounded number, it is unrolled T'
instants before instant 0, over -T'..k+T (look-ahead unrolling); what is
said of instant 0 on the past loop then holds of -T', and of k of k-T'.

Subformula variables are constrained by their fixpoint expansions, one rule
per operator (`_emit_temporal`, `_emit_bool`, `_aliases`): a node's value at instant t follows from its operands
at t and from its recurrence neighbour, the node (or, for next/yesterday/
zeta, the operand) one instant further in the operator's direction.  Where
that neighbour lies beyond a finite edge of the word (the mono origin, the
end of a loop-free window, under E_k as below) it is a constant: false for
the strong operators next, yesterday, until and since, true for the weak
duals zeta, release and trigger.

The encoding is linear in k, after Biere, Heljanko, Junttila, Latvala &
Schuppan, Linear Encodings of Bounded LTL Model Checking (LMCS 2006), with
the bounded past unrolling of Latvala, Biere, Heljanko & Junttila, Simple
Is Better: Efficient Bounded Model Checking for Past LTL (VMCAI 2005).
Exactly one selector is chosen through the chain InLoop_t <-> InLoop_{t-1}
| L_t with L_t -> -InLoop_{t-1} and InLoop_k (InLoop_1 is L_1), so InLoop_t
holds exactly on the loop i..k.  The bi engine runs the same chain R_t over
P_1..P_t, with R_k, and the pool 1..p is InPool_t = -R_{t-1} (InPool_1
holds).  Until obligations alive at the end of the loop are discharged
inside it, `-v | OR_t (InLoop_t & b_t)`, and a negated Release is pinned by
the dual `v | OR_t (InLoop_t & -b_t)`; Since and Trigger do the same around
the past loop through InPool.  A discharge is written only where its
node's polarity needs it (below).

Past-dependent subformulas change value between traversals of the loop, so
one variable per (subformula, instant) cannot be exact.  Such subformulas
are virtually unrolled: copy d of a variable tracks the d-th traversal, up
to copy pd, the past depth, and a read of a deeper traversal reads copy pd.
Atoms, temporal-free and pure-future subformulas keep a single copy.  The
bi engine mirrors this across the origin with backward copies of
future-dependent subformulas over the past loop, up to copy fd, the future
depth.  A copy is thus a loop pass (family "r") or a pool pass ("l"), copy
0 being both, and one rule per direction gives every recurrence neighbour
(`_neighbours`):

- a future node steps to t+1 and wraps from k through the loop start, a
  past node steps to t-1 and wraps from 0 through the pool start (or meets
  the mono origin), one pass deeper: at copy 0 and on the node's own
  family, loop passes for a future node and pool passes for a past one;
- a deeper copy of the other family reads ite(s_t, f(c-1, e), f(c, t+-1)),
  s_t being that loop's selector at t (L_t, P_t) and e the previous pass's
  edge instant (k for a loop pass, read through its loop-end literal, 0 for
  a pool pass); the step before the first loop position of a loop pass
  is a don't-care and reads e, and a pool pass reads its pool successor
  (below) at the last pool position k.  Such a copy's values off its loop
  (before the loop start, after the pool start) are don't-cares that
  nothing reads, since constraints on deeper copies hold only where
  InLoop_t (InPool_t) does.  Instant 0 never lies on the future loop, so a
  loop pass starts at instant 1 (T+1 when unrolled), and a pool pass ends
  at k (k-T').

Copy pd is the last one that differs, by induction on pd.  The operands of
f have past depth below pd, so they repeat from copy pd-1 on.  f's loop
entry value in copy n+1 is then x_{n+1} = G(x_n) for every n >= pd-1, with
one monotone G on {0,1}: a constant or the identity, so G(G(x)) = G(x).
Hence x_{pd+1} = G(G(x_{pd-1})) = G(x_{pd-1}) = x_pd, and copy pd+1 repeats
copy pd at every instant of the loop.  The same step shows that the top
copy needs no row tying its loop entry to its own value at k: x_pd =
G(x_pd) is implied.  The backward copies stabilize at fd by the mirror
argument.

Only a reader makes a deeper pass count, so a node gets its copies only
where one can reach them.  A deeper loop pass is entered only at a wrap: a
future entry at k reads its operand's (or its own) next pass at the loop
start.  A deeper pool pass is entered only where a bi past entry at instant
0 reads the next pass at the pool start.  A transition's clause holds on
every pass of its literals' copies.  Every other read stays on the
reader's pass or goes to a shallower one.  So one parents-first pass over
the closure marks a node "read forward" if it is a future node, a literal
of a transition's clause or an operand of a node so marked, and "read
back" if it is a past node, such a literal or an operand of a node so
marked.  A node keeps its loop passes 1..pd only if it is read
forward, and on the bi engine its pool passes 1..fd only if it is read
back; else that family's cap is 0.  Where a node keeps a cap its operands
are marked too, so they keep theirs, and the stabilization argument above
holds for it as stated.  The rows dropped are read only by one another: a
kept row reads its operands' rows of its pass or a shallower one, and those
are kept.  Their clauses are definitions and nothing else (every discharge
sits on a future node's loop passes or a past node's pool passes, which are
kept), and each definition reads kept entries, the same row one instant
further in its operator's direction, the previous pass at a wrap, or a free
successor literal.  So any model of the kept clauses extends to the dropped
rows by evaluating their definitions in that order, and the encoding
without them has the same models, restricted to what it keeps.

Look-back unrolling, after the bounded metric operators of Pradella,
Morzenti & San Pietro, Bounded Satisfiability Checking of Metric Temporal
Logic Specifications (TOSEM 2013).  A node with no since or trigger below
it reads back a bounded number of instants, its look-back: 0 for an atom,
one more than its operand's for yesterday and zeta, the largest of its
operands' for any other node (a future node reads only forward).  Its
value at instant n depends only on the word from n minus its look-back on,
so on a word periodic from instant L it repeats with the loop from L plus
its look-back on.  T is the largest look-back of a node read forward that
has one, and 0 where there is none.  The word is then unrolled to k+T
instants: the loop selectors run over T+1..k+T, and under E_k each atom x
at an instant m in k+1..k+T is tied to its value one loop earlier, -E |
-L_i | -x(m) | x(m-p) and -E | -L_i | x(m) | -x(m-p), with p = k+T+1-i the
loop's length (T * atoms * 2k clauses).  So the T instants before the loop
start i repeat its last T, the word is periodic from i-T, and its instants
0..k with loop start i-T are a bound-k lasso of the same word; conversely
each bound-k lasso with loop start L unrolls to one with loop start L+T.
The wrap is resolved once per (atom, instant), not once per entry.
VarMap reports the bound k and `trace.decode` the loop start i-T, and a
history's `**LOOP**` marker at L pins L_{L+T}.  The pool selectors stay
clear of the T instants after k, and the pool passes hold the instants up
to the last pool position: the pool lies within them, and each of their
ite neighbours needs its P_t.

Every loop position lies at T+1 or later, so a node read forward that has
a look-back takes the same value on every loop pass and keeps no loop
pass.  The other nodes count their pass depth in place of their past depth:
0 for a node with a look-back, else the largest pass depth of its operands,
plus one for a past node.  The stabilization argument holds with pass depth
in place of past depth: a node of pass depth 0 repeats from copy 0 on, the
operands of a past node of pass depth n > 0 have pass depth below n, so
they repeat from copy n-1 on and the step through G shows that copy n is
its last distinct one, and a boolean or future node repeats from the copy
its operands repeat from.  The readers argument is unchanged: it decides
which nodes keep their caps, whatever the caps are, and a read of a deeper
pass of a node of pass depth 0 reads its primary row, whose values on the
loop are those of every pass.  With T = 0 (no node read forward reads back
a bounded number of instants, past nodes included) pass depth and past
depth agree on every node read forward, and the encoding is the one
without unrolling.  T depends only on the formulas, so it stays fixed as an
encoding grows, and it is kept at every bound, also at a bound k <= T,
where the T extra instants can cost more clauses than the passes they
remove.

Look-ahead unrolling is the same rule with its direction swapped, on the bi
engine's pool passes.  A node with no until or release below it reads ahead
a bounded number of instants, its look-ahead: 0 for an atom, one more than
its operand's for next, the largest of its operands' for any other node (a
past node reads only back).  Its value at instant n depends only on the
word up to n plus its look-ahead.  T' is the largest look-ahead of a node
read back that has one, and 0 where there is none.  The word is then
unrolled T' instants before instant 0, over -T'..k+T: the pool selectors
P_q run over 1-T'..k-T', the pool is -T'..q with q the predecessor of
-T', and under P_q each atom x at an instant m in -T'..-1 is tied to its
value one pool later, -P_q | -x(m) | x(m+p) and -P_q | x(m) | -x(m+p),
with p = q+T'+1 the pool's length (T' * atoms * 2k clauses).  A pool's
length does not depend on k, so these ties need no E_k: each pool selector
writes its own as it enters.  So w(m) = w(m+p) for every m <= -1: the
word's instants 0..k with pool start q+T' are a bound-k word of the bi
engine, and conversely each bound-k word with pool start P unrolls to one
with P_{P-T'}.  `trace.decode` reports the pool start q+T', and a
history's `**POOL**` marker at P pins P_{P-T'}.

Pool pass c holds at instant t of the pool the word's instant t-c*p.  A
node read back with look-ahead h <= T' reads there only the word up to
t+h <= q+T' = p-1, and w(j) = w(j+p) holds for every j <= -1, so its
value at t-c*p is its value at t: it takes the same value on every pool
pass and keeps no pool pass.  The other nodes count their pool pass depth
in place of their future depth: 0 for a node with a look-ahead, else the
largest pool pass depth of its operands, plus one for a future node.  The
stabilization argument holds mirrored, with pool pass depth in place of
future depth: a node of pool pass depth 0 repeats from copy 0 on, the
operands of a future node of pool pass depth n > 0 have pool pass depth
below n, so they repeat from copy n-1 on, and the step through G shows
that copy n is its last distinct one.  The readers argument is unchanged:
it decides which nodes keep their caps, whatever the caps are, and a read
of a deeper pool pass of a node of pool pass depth 0 reads its primary
row, whose values on the pool are those of every pass.  With T' = 0, and
on the mono engine, which has no pool, pool pass depth and future depth
agree on every node read back, and the encoding is the one without
look-ahead unrolling.

The rows hold the instants -T'..k+T, indexed from 0 at instant -T'; the
code speaks of row indices, where the pool selectors run over 1..k (P_q
at q+T', the user's pool start), the pool passes hold 0..k, and the loop
selectors run over T'+T+1..k+T'+T, the positions the loop passes hold.
`VarMap.lit` reads an instant through that offset, and VarMap keeps the
selectors by row index.

Every encoding grows, after Een & Sorensson, Temporal Induction by
Incremental SAT Solving (BMC 2003) and Heljanko, Junttila & Latvala,
Incremental and Complete Bounded Model Checking for Full PLTL (CAV 2005).
`encode(problem)` enters the instants 0..k as one block, `encode(problem,
prefix)` the instants after the prefix's bound.  A block takes its ids,
resolves its aliases and appends, never retracting: its selectors and
their chain links, the definitions at its instants, and the transitions,
root and history there.  The future entries at the last instant k read
their successor through one successor literal y per (operand g, copy c)
and bound (`_successor`); once instant k+1 enters, y is g(c, k+1) for
good, so no definition is written twice.  The block closes the encoding at
k under a fresh activation literal E_k (the previous one gets the unit -E),
and behind E_k go exactly the parts that read k as the last instant:

- the unit InLoop_k (and R_k);
- the successor literals' values: g's next pass at the loop start, -L_i |
  -y | g(c+1, i) and -L_i | y | -g(c+1, i) per selector L_i; beyond a
  loop-free window the finite-word constant;
- the discharges, which span the loop up to k;
- one loop-end literal e per (operand g, copy c) that a deeper loop pass
  reads at its wrap, e <-> g(c, k), so the ite neighbours stay right as k
  grows;
- the ties of the unrolled instants after k to the loop, where T > 0.

A pool pass's future entries at the last pool position k read one pool
successor literal y per (operand g, copy c) and bound
(`_pool_successor`), which needs no E_k: where P_k holds, y is the pool
start's previous pass, -P_k | -y | g(c-1, 0) and -P_k | y | -g(c-1, 0),
and once instant k+1 enters, y is g(c, k+1) where P_k does not hold, P_k |
-y | g(c, k+1) and P_k | y | -g(c, k+1).  Four clauses, where an ite over
P_k, the wrap and a free y took a gate of six and the two of y's tie.

A loop-start tie has 2k clauses, so growing one instant at a time writes
O(k^2) of them; a loop-start literal fixed across bounds would make that
O(k), but it would stand next to y in every fixed-k encoding, one more
variable that the solver's search feels.  The problem at k is the clauses
plus the unit E_k (`cnf.to_cnf`); a live solver assumes E_k instead.

Loop-free mode is the same growth with copy caps (0, 0) and no selectors.
It asserts a transition's clauses at instant t once the transition's
lookahead, its future depth, fits the window (t + depth <= k): the whole
transition's, not each clause's own, so a window asserts all of a
transition at t or none of it.  A loop-free UNSAT means that the
completeness bound is reached only if all k+1 atom state vectors are
pairwise distinct.  Eagerly that is O(k^2 * atoms) clauses, of which a
search breaks few, so the pipeline adds it lazily, after Een & Sorensson
(BMC 2003): each time a model gives two instants s < t the same state,
`distinct(s, t)` appends that they differ in some atom (4 * atoms + 1
clauses, two with one atom, the empty clause with none), and the window is
solved again.  That is exact, and a pair holds at every larger bound too.

A transition holds at every instant (where its lookahead fits), on every
pass of its copies; the one-hot domain constraints of items and arrays are
transitions of future depth 0.  It is asserted as clauses over node
literals, with no variable of its own (the top-level slice of Plaisted &
Greenbaum, A Structure-preserving Clause Form Translation, J. Symb. Comput.
1986; Jackson & Sheridan, Clause Form Conversions for Boolean Circuits,
SAT 2004).  `_split` pushes its negations through and, or, -> and not, and
each conjunct is then one clause over its disjuncts, flattened: an or's
operands, -> a b as -a and b, a negated and's operands negated, and so on
down, any other node g the literal g.  Only the clause literals enter the
closure, so the and/or skeleton above them owns no row unless the root or
another clause reads it, a one-hot pair (!! (&& a b)) is the one clause
[-a, -b], and an or-case, an or of ors over its cases, is one clause over
the and of each case.  A clause holds at
the instants of its transition, on the passes 1..c of each family, c the
largest cap among its literals, since every deeper pass reads the same
rows; a transition holds at a (copy, instant) exactly where its clauses
hold over its literals' values there, so the encoding has the same models.

Each value is named once.  The literal table (VarMap) holds one literal per
(subformula, copy, instant) entry, and an entry whose expansion folds to a
single literal, or to a gate the encoder builds anyway, is that literal and
owns no variable and no defining clauses:

- `not g` is -g, and `iff` is its iff gate, at every copy and instant; a
  true/false node is the one shared constant literal, or its negation;
- `next g` at copy d is g(d, t+1), and at the last instant g's successor;
- `yesterday g` and `zeta g` at copy 0 and t >= 1 are g(0, t-1), and on a
  deeper copy the ite neighbour itself (the loop-end literal at the first
  loop position);
- at the mono origin yesterday and zeta are the constant (false, true) and
  since and trigger their right operand;
- the bi engine's backward copies mirror these rules;
- a negation's successor, pool-start and loop-end literals are its
  operand's, negated.

Ids come from one counter, the clause sink's (`ClauseSink.fresh`), and only
the entries that are not aliases take one (`_owned` says which).  An
alias's slot stays 0 until the table is filled in postorder (`_fill`), so
every operand is resolved before its parents, with no recursion.  The
closure order is: the registry atoms, the other atoms of the root and of
the transitions' clause literals, then their boolean, future and past
nodes, each group in postorder of the root, then the literals in clause
order; the loop
that sorts it also computes each member's future depth and, per family,
its look-back or look-ahead and its pass depth (`_FAMILIES`), and one pass
back over it, parents first, its copy caps and its polarity.  A block
allocates, in this order: the primary rows (its instants of each closure
member in closure order), the copy rows (per member, its loop passes
before its pool passes), its loop selectors, then its pool selectors, E_k,
and, as the clauses are written, the Tseitin gates (iff, ite, the
discharges' and), the chain links, the successor, pool successor,
pool-start and loop-end literals and the constant.  A fresh encoding is
one block, so its rows are laid out row-major.  The iff gates of a
distinctness pair take their ids when the pair is added.  Models decode
through VarMap.lit, and the selectors, which never alias, by their ids.

A block appends its clauses in this order: the unit -E of the previous
bound, each family's chain links and its end under E_k, the previous
bound's successor ties and the new pool positions' pool-start ties, the
aliases' gates, the boolean definitions, the temporal definitions (per
row, each instant's [-u, B, A], [-u, B, N], [u, -B], [u, -A, -N] of the
sides it writes, below), each node's rows followed by its discharge where
it has one, the transitions' clauses (each transition in turn, its
clauses in `_split` order, each clause at its primary instants and then on
its deeper passes), the root unit, the history facts and markers, the
loop-end ties and the replica ties.

The predecessor of instant 0 on the bi engine is the pool start: one
pool-start literal z per (operand g, copy c) that a past entry reads there
has `-P_p | -z | g(c, p)` and `-P_p | z | -g(c, p)` for every pool selector
P_p.  Instant 0 does not move as k grows, so z is fixed, and each new pool
selector adds its two clauses.

Every rule writes its clauses into one cnf.ClauseSink as it goes, and no
definition is guarded: the selectors enter only through their chains, the
ite neighbours and the successor and pool-start literals.

A boolean and, or or -> entry is defined only in the direction that its
readers need, after Plaisted & Greenbaum (J. Symb. Comput. 1986), as lasso
BMC in negation normal form does (Latvala, Biere, Heljanko & Junttila,
Simple Bounded LTL Model Checking, FMCAD 2004).  A node's polarity is the
set of ways it is read: the root reads its node as it is, a clause reads
each literal with its sign, a not and the left side of -> flip the
polarity for their operand, an iff gives its operands both, and every
other node, temporal ones included, passes its own to its operands; the
parents-first pass that sets the caps sets it too.  A node read only as it
is gets v -> op(...) ([-v, a_i] for an and, [-v, a...] for an or), one
read only negated gets op(...) -> v, and one read both ways gets both.

A temporal entry is defined by the same rule, as clauses of its own with
no inner gate.  Let u = +-v, A = +-a, B = +-b and N = +-nb, nb being its
recurrence neighbour, with the sign + for until and since and - for
release and trigger, which are negated untils and sinces (v <-> b & (a |
nb) is -v <-> -b | (-a & -nb)).  The entry is then u <-> B | (A & N): the
side u -> B | (A & N) is [-u, B, A] and [-u, B, N], and B | (A & N) -> u
is [u, -B] and [u, -A, -N].  A release or trigger sees its polarity
flipped, since u is its negation: the first side is written where u is
read as it is, the second where u is read negated.  The discharge goes
with the first side only, an obligation of u alive at the wrap of the
top copy, -E_k | -u(e) | OR_t (InLoop_t & B_t), e the loop's last
position (for since and trigger the pool's first, through InPool): an
until or since read as it is needs it, and so does a release or trigger
read negated.  Every other definition keeps both sides: every gate (iff,
ite, the discharges' and, the chain links) and the successor, pool-start,
loop-end and replica ties.

The encoding keeps its models on the atoms and selectors.  Completeness:
the values that a word gives every entry satisfy every clause, a one-sided
definition being a part of the two-sided one, so every word of the problem
is a model.  Soundness: in a model, an entry read as it is is true only
where its subformula holds, and one read negated is false only where its
subformula fails.  For a boolean entry this follows from its one side and
the same fact of its operands, which are read the same way (the other way
under a not or ->'s left side).  For a temporal entry it follows from its
one side, by induction along its chain of neighbours, and the same fact
of its operands, which u's polarity reads as A and B.  Where u is read as
it is and holds, its side gives B, or A and N: so from a true u the chain
of true neighbours, tied to u through the two-sided ites, successor and
pool-start literals, meets B with A at every instant before it, unless it
runs into a finite edge, where N is the finite-word constant, false for
u (at the mono origin the entry is B itself), or cycles through the top
copy's loop (pool) forever, which the discharge rules out, since it
gives B at an instant of that cycle.  So the until (since) holds, and a
release (trigger) read negated fails.  Where u is read negated and fails,
its side gives -B, and -A or a failing neighbour: the until fails along
that chain to an instant where -A holds, or forever, its greatest
fixpoint, which needs no discharge.  The root and every clause hold in a
model, so they hold on its word.  The stabilization argument speaks of the
values a word gives, which satisfy every row, and holds as it is; the
readers argument extends a model to the dropped rows by evaluating their
definitions, which satisfies either side.  A literal's model value is thus
its subformula's truth value only where both sides are written, and
nothing outside the encoder reads one: decoding and the loop-free state
vectors read atoms and selectors only.

A rule is emitted one row at a time, a row being one (node, family, copy).
What its instants share is resolved once per row: the node's own row and
its operands' rows, the copy clamped to each one's top copy, the operator,
and for a deeper pass the selector map and the wrap literal; the loop over
the instants then only indexes lists.  Ids and clauses still come out entry
by entry, in the order given above: a row draws each instant's neighbour
(`_neighbours`, a generator) just before that instant's own gates and
definition, so an ite neighbour or a successor, pool-start or loop-end
literal takes its id where an entry-at-a-time walk would give it one.
`scripts/encoding_digest.py` pins the resulting bytes.
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
    # E_k, which switches on the parts that read the last instant k; the
    # problem at k is `cnf` plus the unit [E_k]
    activation: int
    encoder: "_Encoder" = field(repr=False, compare=False)


def encode(problem: CheckProblem, prefix: Optional[EncodedProblem] = None) -> EncodedProblem:
    """Compile a problem into clauses, loopy or loop-free.

    Given `prefix`, an encoding of the same problem at a bound no larger
    than problem.k, grow that encoding to problem.k instead: its varmap and
    clause list grow in place and are shared with the result.
    """
    if prefix is None:
        return _Encoder(problem).encode()
    encoder = prefix.encoder
    if replace(problem, k=encoder.problem.k) != encoder.problem or problem.k < encoder.k:
        raise EncodingError("only an encoding of the same problem grows")
    encoder.problem = problem
    return encoder.encode()


def _history(problem: CheckProblem, vm: VarMap):
    """The history facts (instant, atom, polarity), checked against the
    problem, and the (family, position) of the selectors its loop and pool
    markers pin."""
    facts = problem.facts
    if facts is None:
        return (), ()
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
    for family, name, at in (("r", "loop", facts.loop_at), ("l", "pool", facts.pool_at)):
        if at is None:
            continue
        if family == "r" and problem.loop_free:
            raise EncodingError("**LOOP** marker is meaningless in loop-free mode")
        if family == "l" and vm.engine != "bi":
            raise EncodingError("**POOL** marker requires the bi engine")
        if not 1 <= at <= problem.k:
            raise EncodingError(f"history {name} marker at {at} outside 1..{problem.k}")
        out.append((family, at))
    return facts.facts, out


def _positive(g: Formula, sign: int = 1):
    """(g stripped of its negations, sign flipped once per negation)."""
    while type(g) is Not:
        g, sign = g.sub, -sign
    return g, sign


def _junction(g: Formula, sign: int):
    """(True for a disjunction, False for a conjunction, its parts (node,
    sign)) of an and, or or -> g under sign, the negation pushed through;
    None for any other node."""
    cls = type(g)
    if cls is Implies:  # -left | right
        parts = [(g.left, -sign), (g.right, sign)]
    elif cls is And or cls is Or:
        parts = [(h, sign) for h in g.items]
    else:
        return None
    return (cls is And) != (sign > 0), parts


def _split(f: Formula) -> list:
    """Transition f as clauses, each a tuple of literals (node, sign), the
    node stripped of its negations (`_positive`): negations pushed through
    and, or, -> and not, each conjunct one clause over its disjuncts,
    flattened (an `or`'s operands, `-> a b` as -a and b, a negated `and`'s
    operands negated, and theirs in turn); any other disjunct g is the
    literal g."""
    out, todo = [], [(f, 1)]
    while todo:
        g, sign = _positive(*todo.pop())
        junction = _junction(g, sign)
        if junction is None:
            out.append(((g, sign),))
        elif not junction[0]:  # a conjunction: each part in turn
            todo.extend(reversed(junction[1]))
        else:  # a disjunction: one clause, its inner disjunctions flattened
            clause, stack = [], junction[1][::-1]
            while stack:
                g, sign = _positive(*stack.pop())
                junction = _junction(g, sign)
                if junction is not None and junction[0]:
                    stack.extend(reversed(junction[1]))
                else:
                    clause.append((g, sign))
            out.append(tuple(clause))
    return out


# ---------------------------------------------------------------------------
# the encoder: one expansion rule per operator, shared by every mode
# ---------------------------------------------------------------------------

# shift operators: the recurrence neighbour is the operand, not the node
_SHIFT = frozenset((Next, Yesterday, Zeta))
# weak duals: the neighbour beyond a finite edge is true (false otherwise)
_WEAK = frozenset((Zeta, Release, Trigger))
_UNTIL_LIKE = frozenset((Until, Since))
# polarities, the sides of a definition as bits (`ClauseSink.define`): read
# as it is, read negated, or both; _FLIP[p] is p seen through a negation
_POS, _NEG, _BOTH = 1, 2, 3
_FLIP = (0, _NEG, _POS, _BOTH)
_FUTURE = frozenset((Next, Until, Release))
_PAST = frozenset((Yesterday, Zeta, Since, Trigger))
# nodes that are one literal of other entries, or a gate over them, at
# every copy and instant
_ALIASES = frozenset((Not, Iff, TrueF, FalseF, Next, Yesterday, Zeta))
# per family, loop passes "r" and pool passes "l": the partition whose nodes
# wrap into the family's deeper passes, the partition whose nodes read the
# other way, across those passes, and those of them that read a bounded
# number of instants
_FAMILIES = {
    "r": (_FUTURE, _PAST, frozenset((Yesterday, Zeta))),
    "l": (_PAST, _FUTURE, frozenset((Next,))),
}


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
        # the families whose loop has selectors: none in a loop-free window
        self.looping = () if self.loop_free else ("r", "l") if engine == "bi" else ("r",)
        # each transition's clauses (`_split`); operands before their
        # parents: the order the aliases are resolved in
        split = [_split(tr) for tr in problem.transitions]
        literals = [g for clauses in split for lits in clauses for g, _ in lits]
        roots = (problem.root,) if problem.root is not None else ()
        self.postorder = closure((*roots, *literals))
        # per node, its future nesting depth and its partition; per looping
        # family, how many instants it reads the other way (None with an
        # unbounded reader of that way below it: a since or trigger for the
        # loop passes) and its pass depth, that way's nesting counted only
        # above such nodes
        looping = [(i, family, _FAMILIES[family])
                   for i, family in enumerate(_FAMILIES) if family in self.looping]
        depth = self.depth = dict.fromkeys(problem.atoms, 0)
        reach = {family: dict.fromkeys(problem.atoms, 0) for family in self.looping}
        passes = {family: dict.fromkeys(problem.atoms, 0) for family in self.looping}
        groups = {"atom": dict.fromkeys(problem.atoms), "bool": {}, "future": {}, "past": {}}
        for f in self.postorder:
            subs = children(f)
            cls = type(f)
            if cls in _FUTURE:
                kind = "future"
            elif cls in _PAST:
                kind = "past"
            else:
                kind = "atom" if cls is Atom else "bool"
            depth[f] = max((depth[g] for g in subs), default=0) + (kind == "future")
            groups[kind][f] = None
            for _, family, (_, across, bounded) in looping:
                far, deep = reach[family], passes[family]
                step = cls in across
                spans = [far[g] for g in subs]
                if (step and cls not in bounded) or None in spans:
                    far[f] = None
                    deep[f] = max((deep[g] for g in subs), default=0) + step
                else:
                    far[f] = max(spans, default=0) + step
                    deep[f] = 0
        # the top copy of each family (where traversal values start to
        # repeat) for the nodes whose deeper passes have a reader, parents
        # first: a node is read forward (back) if it is a future (past) node,
        # a transition's clause literal or an operand of a node so read.  The
        # look-back T is the furthest that a node read forward and free of
        # since and trigger reads back, and the look-ahead T' the furthest
        # that a node read back and free of until and release reads ahead;
        # such a node keeps no loop pass (no pool pass).
        # The same pass gives each node its polarity, the sides of its
        # definition that its readers need (`ClauseSink.define`, and
        # `_emit_temporal`, which flips a release's and a trigger's): _POS
        # where the root or a clause reads it as it is, _NEG where a clause
        # reads it negated; a not and the left side of -> flip it for their
        # operands, an iff gives its operands both, and every other node
        # passes its own.
        self.caps: Dict[Formula, Tuple[int, int]] = dict.fromkeys(problem.atoms, (0, 0))
        readers = {family: set(literals) for family in self.looping}
        sides = self.sides = dict.fromkeys(roots, _POS)
        for clauses in split:
            for lits in clauses:
                for g, sign in lits:
                    sides[g] = sides.get(g, 0) | (_POS if sign > 0 else _NEG)
        self.unroll = dict.fromkeys(_FAMILIES, 0)
        for f in reversed(self.postorder):
            cls, subs, side = type(f), children(f), sides[f]
            if cls is Iff:
                side = _BOTH
            flip = _FLIP[side] if cls is Not or cls is Implies else side
            for i, g in enumerate(subs):  # -> flips its left side only
                sides[g] = sides.get(g, 0) | (flip if i == 0 else side)
            caps = [0, 0]
            for i, family, (wraps, _, _) in looping:
                read = readers[family]
                if cls in wraps:
                    read.add(f)
                if f in read:
                    read.update(subs)
                    far = reach[family][f]
                    if far:
                        self.unroll[family] = max(self.unroll[family], far)
                    caps[i] = passes[family][f]
            self.caps[f] = tuple(caps)
        self.lookback = self.unroll["r"]
        # per transition clause: its literals, its whole transition's
        # lookahead in a loop-free window (0 elsewhere), and its rows above
        # the primary one, each family's up to the largest cap among its
        # literals
        self.assertions = []
        for clauses in split:
            ahead = max((depth[g] for lits in clauses for g, _ in lits), default=0)
            for lits in clauses:
                copies = tuple(
                    (family, c) for i, family in enumerate(_FAMILIES)
                    for c in range(1, max((self.caps[g][i] for g, _ in lits), default=0) + 1))
                self.assertions.append((lits, ahead if self.loop_free else 0, copies))
        # the instants a row runs beyond the bound's, after instant k and
        # before instant 0
        self.unrolled = self.lookback + self.unroll["l"]
        order = tuple(f for group in groups.values() for f in group)
        # the rows of each node, (family, copy): the primary row, its loop
        # passes, then its pool passes; lrows[f][0] is rrows[f][0]
        self.copies = {
            f: (("r", 0), *(("r", c) for c in range(1, nr + 1)),
                *(("l", c) for c in range(1, nl + 1)))
            for f, (nr, nl) in self.caps.items()
        }
        # every row is indexed by instant plus T'; a loop pass starts at
        # T'+T+1, after placeholders
        rrows = {f: [[], *([0] * (self.unrolled + 1) for _ in range(self.caps[f][0]))]
                 for f in order}
        vm = self.vm = VarMap(
            k=-1, engine=engine, closure=order, atoms=tuple(groups["atom"]), rrows=rrows,
            lrows={f: [rows[0], *([] for _ in range(self.caps[f][1]))]
                   for f, rows in rrows.items()},
            copy_base={}, loop_selectors={}, pool_selectors={}, max_var=0,
            partitions={name: tuple(groups[name]) for name in ("bool", "future", "past")},
            assertion_instant=1 if engine == "mono" else 0, lookback=self.lookback,
            lookahead=self.unroll["l"],
        )
        # no instant has entered yet: the bound k and the last row index
        # k+T'+T
        self.k = self.last = -1
        # per family, "r" for the loop passes and "l" for the pool passes:
        # the literal rows, the selectors of the loop and their chain,
        # position t -> OR of the selectors up to t
        self.rows = {"r": vm.rrows, "l": vm.lrows}
        self.selectors = {"r": vm.loop_selectors, "l": vm.pool_selectors}
        self.chains: Dict[str, Dict[int, int]] = {"r": {}, "l": {}}
        self.sink = ClauseSink(0)
        # the successor literals of the current bound, the pool-start and
        # the loop-end literals
        self.successors: Dict[tuple, int] = {}
        self.starts: Dict[tuple, int] = {}
        self.ends: Dict[tuple, int] = {}
        self.true: Optional[int] = None  # the shared constant literal
        self.activation = 0  # E_k, once an instant has entered
        self.facts, self.markers = _history(problem, vm)

    def encode(self) -> EncodedProblem:
        if self.problem.k > self.k:
            self._grow(self.problem.k)
        return EncodedProblem(
            varmap=self.vm, cnf=self.sink.instance(), activation=self.activation, encoder=self
        )

    def _positions(self, family: str, lo: int) -> range:
        """The family's selector positions from row index lo on: a loop
        starts at T'+T+1 at the earliest, a pool ends at k at the latest;
        lo is the first new index of the rows, so a pool's first new
        position is T'+T fewer."""
        if family == "r":
            return range(max(lo, self.unrolled + 1), self.last + 1)
        return range(max(lo - self.unrolled, 1), self.k + 1)

    def _span(self, family: str, c: int, lo: int) -> range:
        """The row indices from lo on that row (family, c) holds: a
        primary row 0..k+T'+T, a loop pass its loop's positions and a pool
        pass its pool's, 0..k."""
        if not c:
            return range(lo, self.last + 1)
        if family == "r":
            return self._positions(family, lo)
        return range(max(lo - self.unrolled, 0), self.k + 1)

    def _row(self, family: str, f: Formula, c: int):
        """f's literal row on the family's copy c, clamped to f's top copy."""
        rows = self.rows[family][f]
        return rows[c] if c < len(rows) else rows[-1]

    def _owned(self, f: Formula, c: int, span: range) -> range:
        """The instants of `span` whose entries (f, copy c, t) own a
        variable: a suffix of it.  The rest are aliases, literals of other
        entries or a gate the encoder builds anyway."""
        cls = type(f)
        if cls in _ALIASES or ((cls is And or cls is Or) and len(f.items) < 2):
            return range(span.stop, span.stop)
        if (cls is Since or cls is Trigger) and c == 0 and self.engine == "mono":
            return range(max(span.start, 1), span.stop)  # the origin: b
        return span

    def _on_loop(self, family: str, t: int) -> Optional[int]:
        """The literal of "instant t lies on the loop" (InLoop_t) or "on the
        pool" (InPool_t = -R_{t-1}); None where it always does."""
        chain = self.chains[family]
        if family == "r":
            return chain[t]
        return -chain[t - 1] if t > 1 else None

    def _constant(self, value: bool) -> int:
        """The shared constant literal, true or false."""
        if self.true is None:
            self.true = self.sink.fresh()
            self.sink.clause([self.true])
        return self.true if value else -self.true

    def _fill(self, lo: int) -> None:
        """Write the aliases at the instants lo..k into the literal table,
        each operand's rows before its parents'."""
        for f in self.postorder:
            for family, c in self.copies[f]:
                span = self._span(family, c, lo)
                ts = range(span.start, self._owned(f, c, span).start)
                if ts:
                    self.rows[family][f][c][ts.start:ts.stop] = self._aliases(f, family, c, ts)

    def _aliases(self, f: Formula, family: str, c: int, ts: range) -> list:
        """The literals that the aliased entries (f, copy c, t in ts) stand
        for: each one's expansion folded to one literal (a gate for iff,
        the constant for an empty expansion)."""
        cls, lo, hi = type(f), ts.start, ts.stop
        if cls in _SHIFT:  # beyond the mono origin: the constant
            weak = cls in _WEAK
            return [self._constant(weak) if nb is None else nb
                    for _, nb in zip(ts, self._neighbours(f, family, c, ts))]
        if cls is Not:
            return [-x for x in self._row(family, f.sub, c)[lo:hi]]
        if cls is Iff:
            gate = self.sink.gate
            return [gate("iff", [a, b]) for a, b in zip(
                self._row(family, f.left, c)[lo:hi], self._row(family, f.right, c)[lo:hi])]
        if cls is Since or cls is Trigger:  # the mono origin: b
            return self._row(family, f.right, c)[lo:hi]
        items = f.items if cls is And or cls is Or else ()
        if items:
            return self._row(family, items[0], c)[lo:hi]
        return [self._constant(cls is And or cls is TrueF)] * len(ts)

    def _successor(self, g: Formula, c: int, weak: bool) -> int:
        """One literal for g's copy c at the instant after the last one,
        row index k+T'+T, read by the future entries there.  Under E_k it is g's next pass
        at the loop start (-E | -L_i | -y | g(c+1, i) and -E | -L_i | y |
        -g(c+1, i) for each selector L_i), beyond a loop-free window the
        finite-word constant (true for a weak reader); `_grow` ties it to
        g(c, k+T'+T+1) once that instant enters."""
        g, sign = _positive(g)
        weak ^= sign < 0  # a negation swaps the finite-word constants
        rows = self.rows["r"][g]
        key = ("r", g, min(c, len(rows) - 1), weak and self.loop_free)
        y = self.successors.get(key)
        if y is None:
            y = self.successors[key] = self.sink.fresh()
            if self.loop_free:
                self.sink.clause([-self.activation, y if weak else -y])
            else:
                row = rows[min(c + 1, len(rows) - 1)]
                self._tie(y, "r", row, self.selectors["r"], -self.activation)
        return sign * y

    def _pool_successor(self, g: Formula, c: int) -> int:
        """One literal for g's copy c after the last pool position k, read
        by the future entries at k on pool pass c: the previous pass at the
        pool start where P_k holds, -P_k | -y | g(c-1, 0) and -P_k | y |
        -g(c-1, 0); `_grow` ties it to g(c, k+1) where P_k does not hold,
        once that instant enters.  Where P_k holds, instant k+1 lies off the
        pool and y stays apart from it: g(c, k+1) may be an atom's value at
        an instant of the word, which the wrap must not pin."""
        g, sign = _positive(g)
        rows = self.rows["l"][g]
        top = len(rows) - 1
        key = ("l", g, min(c, top), min(c - 1, top))
        y = self.successors.get(key)
        if y is None:
            y = self.successors[key] = self.sink.fresh()
            s, wrap = self.selectors["l"][self.k], rows[key[3]][0]
            self.sink.clause([-s, -y, wrap])
            self.sink.clause([-s, y, -wrap])
        return sign * y

    def _start(self, g: Formula, c: int) -> int:
        """One literal for g's copy c at the pool start, the predecessor of
        instant 0: -P_p | -z | g(c, p) and -P_p | z | -g(c, p) for each pool
        position p, appended as positions enter."""
        g, sign = _positive(g)
        rows = self.rows["l"][g]
        key = (g, min(c, len(rows) - 1))
        z = self.starts.get(key)
        if z is None:
            z = self.starts[key] = self.sink.fresh()
            self._tie(z, "l", rows[key[1]], self.selectors["l"])
        return sign * z

    def _tie(self, y: int, family: str, row, positions, *guard: int) -> None:
        """y is row[i] where the family's selector at i holds, for each
        position i: -s | -y | row[i] and -s | y | -row[i], with the guard."""
        sel, clause = self.selectors[family], self.sink.clause
        for i in positions:
            clause([*guard, -sel[i], -y, row[i]])
            clause([*guard, -sel[i], y, -row[i]])

    def _end(self, g: Formula, c: int) -> int:
        """One literal for g's copy c at the loop end, instant k, read by
        the next loop pass where it wraps; `_grow` ties it to g(c, k) at
        each bound."""
        g, sign = _positive(g)
        key = (g, min(c, len(self.rows["r"][g]) - 1))
        e = self.ends.get(key)
        if e is None:
            e = self.ends[key] = self.sink.fresh()
        return sign * e

    def _neighbours(self, f: Formula, family: str, c: int, ts: range):
        """Yield, for each instant t of ts, the literal at the recurrence
        neighbour of temporal entry (f, copy c, t): of f's operand for a
        shift, else of f; None beyond the mono origin.  The literals and
        gates a value needs take their ids as it is drawn, so drawing in
        step with the entries' own clauses keeps the ids in entry order."""
        cls = type(f)
        g = f.sub if cls in _SHIFT else f
        future = cls in _FUTURE
        own = "r" if future else "l"
        if c == 0 or family == own:
            row = self._row(own, g, c)
            if future:  # beyond the last instant: the successor literal
                last = self.last
                for t in ts:
                    yield row[t + 1] if t < last else self._successor(g, c, cls in _WEAK)
            else:  # instant 0 steps to the pool start, one pass deeper
                for t in ts:
                    yield row[t - 1] if t else (
                        self._start(g, c + 1) if "l" in self.looping else None)
            return
        # a deeper pass of the other loop: the previous pass's edge instant
        # where that loop's selector holds at t, the step elsewhere
        row, sel, gate = self._row(family, g, c), self.selectors[family], self.sink.gate
        if family == "r":  # the step before the first loop position is a don't-care
            wrap, first = self._end(g, c - 1), self.unrolled + 1
            for t in ts:
                yield wrap if t == first else gate("ite", [sel[t], wrap, row[t - 1]])
            return
        wrap, k = self._row("l", g, c - 1)[0], self.k
        for t in ts:
            if t == k:
                yield self._pool_successor(g, c)
                continue
            s = sel.get(t)
            yield row[t + 1] if s is None else gate("ite", [s, wrap, row[t + 1]])

    def _grow(self, k: int) -> None:
        """The row indices after the current last one up to k+T'+T enter
        as one block; append their clauses and close the encoding at bound k under
        E_k."""
        vm, sink, problem, U = self.vm, self.sink, self.problem, self.unrolled
        clause, rrows = sink.clause, vm.rrows
        lo, last = self.last + 1, self.activation
        self.k = vm.k = k
        end = self.last = k + U
        for f in vm.closure:
            self._enter(f, "r", 0, lo)
        for f in vm.closure:
            for family, c in self.copies[f][1:]:
                ids = sink.next_var
                self._enter(f, family, c, lo)
                if sink.next_var > ids:
                    vm.copy_base.setdefault((f, family, c), ids)
        positions = {family: self._positions(family, lo) for family in self.looping}
        for family in self.looping:
            new = positions[family]
            self.selectors[family].update(zip(new, sink.fresh_ids(len(new))))
        vm.max_var = sink.next_var - 1
        if last:  # the previous bound is closed for good
            clause([-last])
        edge = self.activation = sink.fresh()

        # exactly one selector: chain_t <-> chain_{t-1} | s_t, s_t ->
        # -chain_{t-1}, and chain_k+T'+T (chain_k on the pool) under E_k
        for family in self.looping:
            sel, chain = self.selectors[family], self.chains[family]
            for t in positions[family]:
                prev = chain.get(t - 1)
                if prev is None:
                    chain[t] = sel[t]
                else:
                    clause([-sel[t], -prev])
                    chain[t] = sink.gate("or", [prev, sel[t]])
            clause([-edge, chain[end if family == "r" else k]])
        # the previous bound's successor literals become the first new
        # instant of their rows, and the pool-start literals take the new
        # pool positions
        successors, self.successors = self.successors, {}
        starts = list(self.starts.items())
        self._fill(lo)
        for (family, g, c, _), y in successors.items():
            if family == "r":
                sink.define(y, "and", [rrows[g][c][lo]])
            else:  # where the pool does not start at the previous bound
                s, x = self.selectors["l"][lo - U - 1], vm.lrows[g][c][lo - U]
                clause([s, -y, x])
                clause([s, y, -x])
        for (g, c), z in starts:
            self._tie(z, "l", self.rows["l"][g][c], positions["l"])
        for f in vm.partitions["bool"]:
            self._emit_bool(f, lo)
        for f in (*vm.partitions["future"], *vm.partitions["past"]):
            self._emit_temporal(f, lo)

        for lits, ahead, copies in self.assertions:
            # a loop-free window asserts a transition once its lookahead fits
            signed = [(sign, rrows[g][0]) for g, sign in lits]
            for t in range(max(lo - ahead, 0), end - ahead + 1):
                clause([sign * row[t] for sign, row in signed])
            # constraints with past content must also hold on later passes
            for family, c in copies:
                signed = [(sign, self._row(family, g, c)) for g, sign in lits]
                for t in self._span(family, c, lo):
                    on = self._on_loop(family, t)
                    lits_t = [sign * row[t] for sign, row in signed]
                    clause(lits_t if on is None else [-on, *lits_t])
        if problem.root is not None and lo <= vm.assertion_instant + vm.lookahead <= end:
            vm.root_lit = vm.lit(problem.root, vm.assertion_instant)
            clause([vm.root_lit])
        if not lo:  # the history lies within the first bound
            for t, atom, polarity in self.facts:
                x = vm.lit(atom, t)
                clause([x if polarity else -x])
            # the user's loop start L is position L+T'+T, pool start P is P
            for family, position in self.markers:
                clause([self.selectors[family][position + (U if family == "r" else 0)]])
        for (g, c), e in self.ends.items():  # the loop end is row index k+T'+T
            x = rrows[g][c][end]
            clause([-edge, -e, x])
            clause([-edge, e, -x])
        # the unrolled instants repeat the word one loop earlier, under E_k
        # and each loop selector, and one pool later, under each new pool
        # selector (a pool's length does not depend on k)
        self._replicas("r", self.selectors["r"], -edge)
        self._replicas("l", positions.get("l", ()))

    def _replicas(self, family: str, positions, *guard: int) -> None:
        """Tie each atom at the family's unrolled instants to itself one
        loop earlier (the last T; where L_i holds the loop is k+T'+T+1-i
        instants long) or one pool later (the first T'; where P_p holds the
        pool is p+1 long), for each position, with the guard."""
        n, sel, clause = self.unroll[family], self.selectors[family], self.sink.clause
        if family == "r":
            unrolled, shift = range(self.last + 1 - n, self.last + 1), -self.last - 1
        else:
            unrolled, shift = range(n), 1
        for a in self.vm.atoms:
            x = self.rows["r"][a][0]
            for m in unrolled:
                for i in positions:
                    s, other = sel[i], x[m + shift + i]
                    clause([*guard, -s, -x[m], other])
                    clause([*guard, -s, x[m], -other])

    def _enter(self, f: Formula, family: str, c: int, lo: int) -> None:
        """Extend f's row (family, c) over its instants from lo on (`_span`):
        0 for an alias (`_fill` writes it), else a fresh id."""
        span = self._span(family, c, lo)
        owned = self._owned(f, c, span)
        row = self.rows[family][f][c]
        row.extend([0] * (owned.start - span.start))
        row.extend(self.sink.fresh_ids(len(owned)))

    def distinct(self, s: int, t: int) -> None:
        """Loop-free: append that instants s and t differ in at least one
        atom; with no atoms that is the empty clause."""
        sink, vm = self.sink, self.vm
        if len(vm.atoms) == 1:  # a_s <-> -a_t: two clauses, no gate
            a = vm.atoms[0]
            sink.define(vm.lit(a, s), "and", [-vm.lit(a, t)])
        else:
            sink.clause([-sink.gate("iff", [vm.lit(a, s), vm.lit(a, t)]) for a in vm.atoms])

    def _emit_bool(self, f: Formula, lo: int):
        cls = type(f)
        if cls is Implies:
            op, subs = "or", (f.left, f.right)
        elif (cls is And or cls is Or) and len(f.items) > 1:
            op, subs = ("and" if cls is And else "or"), f.items
        else:  # a boolean node aliases everywhere or nowhere
            return
        define, sides = self.sink.define, self.sides[f]
        for family, c in self.copies[f]:
            lo_c = self._span(family, c, lo).start
            cols = [self._row(family, g, c)[lo_c:] for g in subs]
            if cls is Implies:  # -left | right
                cols[0] = [-x for x in cols[0]]
            for v, *lits in zip(self.rows[family][f][c][lo_c:], *cols):
                define(v, op, lits, sides)

    def _emit_temporal(self, f: Formula, lo: int):
        cls = type(f)
        if cls in _SHIFT:  # an alias everywhere
            return
        # u <-> B | (A & N) over u = sign*v, A = sign*a, B = sign*b and N =
        # sign*nb: sign 1 for until and since, -1 for release and trigger,
        # negated untils and sinces, which see their readers' polarity
        # flipped; only the sides that the polarity needs are written
        sign = 1 if cls in _UNTIL_LIKE else -1
        sides = self.sides[f] if sign > 0 else _FLIP[self.sides[f]]
        clause = self.sink.clause
        for family, c in self.copies[f]:
            ts = self._owned(f, c, self._span(family, c, lo))
            if not ts:
                continue
            v, a, b = (self._row(family, g, c) for g in (f, f.left, f.right))
            for t, nb in zip(ts, self._neighbours(f, family, c, ts)):
                u, A, B, N = sign * v[t], sign * a[t], sign * b[t], sign * nb
                if sides & _POS:
                    clause([-u, B, A])
                    clause([-u, B, N])
                if sides & _NEG:
                    clause([u, -B])
                    clause([u, -A, -N])
        own = "r" if cls in _FUTURE else "l"
        if own not in self.looping or not sides & _POS:
            return
        # under E_k, an obligation of u alive at the wrap of the top copy is
        # discharged inside the loop (its crossing is a self-cycle): some
        # looping instant has B, the until's (since's) right operand or the
        # release's (trigger's) negated.  u read negated is a greatest
        # fixpoint and needs none.
        k, sink = self.k, self.sink
        top = self.caps[f][0 if own == "r" else 1]
        v, b = self._row(own, f, top), self._row(own, f.right, top)
        # the loop's positions T'+T+1..k+T'+T, the pool's 0..k
        first, end = (self.unrolled + 1, self.last) if own == "r" else (0, k)
        lits = [-self.activation, -sign * v[end if own == "r" else 0]]
        for t in range(first, end + 1):
            bt, on = sign * b[t], self._on_loop(own, t)
            lits.append(bt if on is None else sink.gate("and", [on, bt]))
        sink.clause(lits)
