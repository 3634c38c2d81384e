import itertools
import random

from lassosat.cnf import (
    CnfInstance,
    check_model,
    dimacs_text,
    parse_dimacs,
    to_cnf,
)
from lassosat.encoder import CheckProblem, cand, cnot, cor, cvar, encode
from lassosat.formula import Atom
from lassosat.sat_embedded import solve_embedded


class _Fake:
    """Minimal EncodedProblem stand-in for direct circuit tests."""

    def __init__(self, formula, num_vars):
        class VM:
            max_var = num_vars

        self.varmap = VM()
        self.formula = formula


def _eval_circuit(c, assign):
    if c is True or c is False:
        return c
    op = c[0]
    if op == "v":
        return assign[c[1]]
    if op == "not":
        return not _eval_circuit(c[1], assign)
    if op == "and":
        return all(_eval_circuit(x, assign) for x in c[1])
    if op == "or":
        return any(_eval_circuit(x, assign) for x in c[1])
    if op == "iff":
        return _eval_circuit(c[1], assign) == _eval_circuit(c[2], assign)
    raise ValueError(op)


def _random_circuit(rng, depth, num_vars):
    if depth == 0 or rng.random() < 0.3:
        lit = cvar(rng.randint(1, num_vars))
        return cnot(lit) if rng.random() < 0.4 else lit
    op = rng.randrange(4)
    if op == 0:
        return cnot(_random_circuit(rng, depth - 1, num_vars))
    if op == 1:
        return cand([_random_circuit(rng, depth - 1, num_vars) for _ in range(rng.randint(2, 3))])
    if op == 2:
        return cor([_random_circuit(rng, depth - 1, num_vars) for _ in range(rng.randint(2, 3))])
    return ("iff", _random_circuit(rng, depth - 1, num_vars),
            _random_circuit(rng, depth - 1, num_vars))


def test_and_gate_units():
    inst = to_cnf(_Fake(cand((cvar(1), cvar(2))), 2))
    assert [1] in inst.clauses and [2] in inst.clauses


def test_constant_false_circuit_is_unsat():
    inst = to_cnf(_Fake(False, 2))
    assert solve_embedded(inst).verdict == "UNSAT"


def test_equisatisfiability_against_circuit_enumeration():
    rng = random.Random(3)
    for _ in range(120):
        num_vars = rng.randint(1, 6)
        circuit = _random_circuit(rng, rng.randint(1, 4), num_vars)
        inst = to_cnf(_Fake(circuit, num_vars))
        brute = any(
            _eval_circuit(circuit, (None,) + bits)
            for bits in itertools.product((False, True), repeat=num_vars)
        )
        result = solve_embedded(inst)
        assert (result.verdict == "SAT") == brute
        if result.verdict == "SAT":
            # model fidelity: the original circuit evaluates true
            assert _eval_circuit(circuit, result.model)


def test_subformula_variables_keep_their_meaning():
    problem = CheckProblem(k=2, engine="mono", root=Atom("P"))
    encoded = encode(problem)
    inst = to_cnf(encoded)
    result = solve_embedded(inst)
    assert result.verdict == "SAT"
    # the root variable is asserted as a unit and must be true in the model
    assert result.model[encoded.varmap.root_var]


def test_emit_dimacs_golden():
    inst = CnfInstance(2, [[1, -2], [2]])
    assert dimacs_text(inst) == "p cnf 2 2\n1 -2 0\n2 0\n"


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
    inst = to_cnf(_Fake(cor((cvar(1), cnot(cvar(1)), cvar(2))), 2))
    for clause in inst.clauses:
        assert not any(-lit in clause for lit in clause)


def test_clauses_are_deduplicated_in_first_occurrence_order():
    clauses = [
        cor((cvar(1), cvar(1))),  # repeated literal: a unit
        cor((cvar(2), cnot(cvar(2)))),  # tautology: dropped
        cor((cvar(3), cnot(cvar(1)))),
        cor((cvar(2), cvar(3), cvar(2))),
    ]
    inst = to_cnf(_Fake(cand(tuple(clauses)), 3))
    assert inst.clauses == [[1], [3, -1], [2, 3]]


def test_check_model():
    inst = CnfInstance(2, [[1, -2], [2]])
    assert check_model(inst, [None, True, True])
    assert not check_model(inst, [None, False, True])
