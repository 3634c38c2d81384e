import itertools
import random

from dimacs import parse_dimacs
from lassosat.cnf import (
    ClauseSink,
    CnfInstance,
    _sanitize,
    check_model,
    dimacs_text,
    to_cnf,
)
from lassosat.encoder import CheckProblem, encode
from lassosat.formula import Atom
from lassosat.sat_embedded import solve_embedded


def _apply(op, values):
    if op == "and":
        return all(values)
    if op == "or":
        return any(values)
    a, b = values
    return a == b


def _value(lit, assign):
    return assign[lit] if lit > 0 else not assign[-lit]


def _random_program(rng, num_vars):
    """A random run of gate/define/clause calls on a fresh sink.

    Returns the sink and the calls, each ("gate", op, lits, g),
    ("define", v, op, lits) or ("clause", lits), over literals of the
    variables 1..num_vars and of earlier gates.
    """
    sink = ClauseSink(num_vars)
    pool = list(range(1, num_vars + 1))
    calls = []

    def lits(n):
        return [rng.choice(pool) * rng.choice((1, -1)) for _ in range(n)]

    for _ in range(rng.randint(1, 6)):
        op = rng.choice(("and", "or", "iff"))
        operands = lits(2 if op == "iff" else rng.randint(0, 3))
        kind = rng.random()
        if kind < 0.5:
            g = sink.gate(op, operands)
            calls.append(("gate", op, operands, g))
            pool.append(abs(g))
        elif kind < 0.75 and op != "iff":  # an iff is defined through its gate
            v = lits(1)[0]
            sink.define(v, op, operands)
            calls.append(("define", v, op, operands))
        else:
            operands = lits(rng.randint(0, 3))
            sink.clause(operands)
            calls.append(("clause", operands))
    return sink, calls


def _run_program(calls, bits):
    """Whether the program holds when variables 1..len(bits) take `bits`;
    gate variables take their gate's value.  Returns (holds, assignment)."""
    assign = dict(enumerate(bits, 1))
    for call in calls:
        if call[0] == "gate":
            _, op, operands, g = call
            if g not in assign and g > 0:  # a fresh gate, not an operand
                assign[g] = _apply(op, [_value(l, assign) for l in operands])
    for call in calls:
        if call[0] == "define":
            _, v, op, operands = call
            if _value(v, assign) != _apply(op, [_value(l, assign) for l in operands]):
                return False, assign
        elif call[0] == "clause":
            if not any(_value(l, assign) for l in call[1]):
                return False, assign
    return True, assign


def test_and_gate_units():
    sink = ClauseSink(2)
    sink.clause([sink.gate("and", [1, 2])])
    inst = sink.instance()
    assert inst.num_vars == 3
    result = solve_embedded(inst)
    assert result.verdict == "SAT" and result.model[1] and result.model[2]
    # a one-operand gate is its operand; no variable is taken
    assert sink.gate("and", [-2]) == -2 and sink.next_var == 4


def test_gates_are_memoized_on_their_operand_literals():
    sink = ClauseSink(3)
    inner = sink.gate("or", [1, -2])
    outer = sink.gate("iff", [inner, 3])
    assert outer == inner + 1  # operand gates come first
    size = len(sink.clauses)
    assert sink.gate("iff", [sink.gate("or", [1, -2]), 3]) == outer
    assert len(sink.clauses) == size
    assert sink.gate("or", [-2, 1]) != inner  # operand order is part of the key


def test_constant_false_circuit_is_unsat():
    sink = ClauseSink(2)
    sink.clause([])
    assert solve_embedded(sink.instance()).verdict == "UNSAT"
    # an empty or-gate is false, an empty and-gate true
    sink = ClauseSink(2)
    sink.clause([sink.gate("or", [])])
    assert solve_embedded(sink.instance()).verdict == "UNSAT"
    sink = ClauseSink(2)
    sink.define(1, "and", [])
    sink.define(2, "or", [])
    assert sink.instance().clauses == [[1], [-2]]


def test_equisatisfiability_against_circuit_enumeration():
    rng = random.Random(3)
    for _ in range(300):
        num_vars = rng.randint(1, 5)
        sink, calls = _random_program(rng, num_vars)
        inst = sink.instance()
        brute = any(
            _run_program(calls, bits)[0]
            for bits in itertools.product((False, True), repeat=num_vars)
        )
        result = solve_embedded(inst)
        assert (result.verdict == "SAT") == brute, calls
        if result.verdict == "SAT":
            # model fidelity: on the model's first num_vars values the
            # program holds and every gate variable carries its gate's value
            holds, assign = _run_program(calls, result.model[1:num_vars + 1])
            assert holds, calls
            assert all(result.model[v] == value for v, value in assign.items()), calls


def test_subformula_variables_keep_their_meaning():
    problem = CheckProblem(k=2, engine="mono", root=Atom("P"))
    encoded = encode(problem)
    inst = to_cnf(encoded)
    result = solve_embedded(inst)
    assert result.verdict == "SAT"
    # the root literal is asserted as a unit and must be true in the model
    root = encoded.varmap.root_lit
    assert result.model[abs(root)] == (root > 0)


def test_emit_dimacs_golden():
    inst = CnfInstance(2, [[1, -2], [2]])
    assert dimacs_text(inst) == "p cnf 2 2\n1 -2 0\n2 0\n"


def test_emit_dimacs_pins_every_clause_shape():
    # comments, then the empty clause (" 0"), unit, binary and long clauses
    inst = CnfInstance(12, [[], [5], [-1, 2], [3, -4, 5, -6, 7, -8, 9, -10, 11, -12], []])
    assert dimacs_text(inst, comments=["P 3 0", "(state= 1 n) 12 4"]) == (
        "c P 3 0\nc (state= 1 n) 12 4\np cnf 12 5\n"
        " 0\n5 0\n-1 2 0\n3 -4 5 -6 7 -8 9 -10 11 -12 0\n 0\n"
    )


def test_emit_dimacs_spans_write_chunks():
    rng = random.Random(12)
    clauses = [
        [rng.choice((-1, 1)) * rng.randint(1, 99999) for _ in range(rng.randint(0, 6))]
        for _ in range(9000)
    ]
    expected = "p cnf 99999 9000\n" + "".join(
        " ".join(map(str, clause)) + " 0\n" for clause in clauses
    )
    assert dimacs_text(CnfInstance(99999, clauses)) == expected


def test_emit_dimacs_empty_clause_list():
    inst = CnfInstance(3, [])
    assert dimacs_text(inst) == "p cnf 3 0\n"


def test_emit_parse_round_trip():
    rng = random.Random(8)
    clauses = [
        [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(rng.randint(1, 4))]
        for _ in range(20)
    ]
    inst = CnfInstance(9, clauses)
    again = parse_dimacs(dimacs_text(inst, comments=["P 3 0", "note"]))
    assert again == inst


def test_parse_dimacs_detects_header_mismatch():
    import pytest

    from lassosat.errors import SolverError

    with pytest.raises(SolverError, match="announces"):
        parse_dimacs("p cnf 2 3\n1 0\n")


def test_no_tautological_clauses():
    sink = ClauseSink(2)
    sink.clause([1, -1, 2])
    sink.define(1, "or", [1, 2])
    sink.gate("and", [2, -2])
    for clause in sink.instance().clauses:
        assert not any(-lit in clause for lit in clause)


def test_clauses_are_deduplicated_in_first_occurrence_order():
    sink = ClauseSink(3)
    sink.clause([1, 1])  # repeated literal: a unit
    sink.clause([2, -2])  # tautology: dropped
    sink.clause([3, -1])
    sink.clause([2, 3, 2])
    assert sink.instance().clauses == [[1], [3, -1], [2, 3]]


class _SanitizingSink(ClauseSink):
    """The reference sink: every clause goes through `_sanitize`, one call
    per clause, with no fast path."""

    def clause(self, lits):
        lits = _sanitize(list(lits))
        if lits is not None:
            self.clauses.append(lits)

    def define(self, v, op, lits):
        if op == "or" and len(lits) != 1:
            v, lits = -v, [-l for l in lits]
        for l in lits:
            self.clause([-v, l])
        self.clause([v] + [-l for l in lits])

    def gate(self, op, lits):
        if len(lits) == 1:
            return lits[0]
        if op == "ite" and lits[1] < 0 and lits[2] < 0:
            return -self.gate("ite", [lits[0], -lits[1], -lits[2]])
        key = (op, tuple(lits))
        g = self.memo.get(key)
        if g is None:
            if op == "ite" and lits[1] == lits[2]:
                return lits[1]
            g = self.memo[key] = self.fresh()
            if op == "iff":
                a, b = lits
                clauses = ([-g, -a, b], [-g, a, -b], [g, a, b], [g, -a, -b])
            elif op == "ite":
                s, a, b = lits
                clauses = ([-g, -s, a], [-g, s, b], [g, -s, -a], [g, s, -b],
                           [-g, a, b], [g, -a, -b])
            else:
                self.define(g, op, lits)
                clauses = ()
            for clause in clauses:
                self.clause(clause)
        return g


def test_sink_fast_paths_write_what_sanitizing_every_clause_writes():
    rng = random.Random(19)
    for _ in range(500):
        fast, reference = ClauseSink(4), _SanitizingSink(4)
        pool = [1, 2, 3, 4]  # few variables: repeats and complements are common

        def lits(n):
            return [rng.choice(pool) * rng.choice((1, -1)) for _ in range(n)]

        for _ in range(rng.randint(1, 10)):
            kind = rng.choice(("clause", "define", "and", "or", "iff", "ite"))
            if kind == "clause":
                operands = lits(rng.randint(1, 6))
                fast.clause(list(operands))
                reference.clause(list(operands))
            elif kind == "define":
                op, v, operands = rng.choice(("and", "or")), lits(1)[0], lits(rng.randint(1, 6))
                if rng.random() < 0.5:  # the defined variable among its operands
                    operands.insert(rng.randint(0, len(operands)), v * rng.choice((1, -1)))
                fast.define(v, op, list(operands))
                reference.define(v, op, list(operands))
            else:
                n = {"iff": 2, "ite": 3}.get(kind) or rng.randint(1, 6)
                operands = lits(n)
                if kind == "ite" and rng.random() < 0.3:  # agreeing branches
                    operands[2] = operands[1]
                g = fast.gate(kind, list(operands))
                assert reference.gate(kind, list(operands)) == g, (kind, operands)
                pool.append(abs(g))
            assert fast.clauses == reference.clauses and fast.next_var == reference.next_var


def test_check_model():
    inst = CnfInstance(2, [[1, -2], [2]])
    assert check_model(inst, [None, True, True])
    assert not check_model(inst, [None, False, True])
