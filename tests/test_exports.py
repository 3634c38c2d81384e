"""The names `lassosat` exports, the ones that load on first use included.

Each check runs in a fresh interpreter, so a module that another test
already imported cannot make a lazy export look resolved.
"""

import os
import subprocess
import sys
from pathlib import Path

import lassosat

EXPORTS = (
    "ArrayDecl", "BoundSearchError", "CheckProblem", "CnfInstance", "DEFAULT_SOLVERS",
    "Declarations", "DomainError", "EncodedProblem", "EncodingError", "FormulaError",
    "HistoryError", "ItemDecl", "LassoTrace", "LassosatError", "PartialHistory",
    "RunConfig", "RunReport", "SAtom", "SList", "SatResult", "SexprSyntaxError",
    "SolverConfig", "SolverError", "SolverTimeout", "SpecDocument", "SpecFormatError",
    "VarMap", "build_problem", "decode", "desugar", "domain_constraints", "emit_dimacs",
    "encode", "eval_lasso", "find_bound", "formula_text", "load_history", "load_spec",
    "parse_history", "parse_spec", "parse_spec_text",
    "read_sexprs", "render_history", "run", "solve_embedded", "solve_external",
    "solver_available", "to_cnf", "to_sexpr", "to_text",
)
LAZY = {
    "eval_lasso": "oracle",
    "formula_text": "pretty",
    "to_sexpr": "pretty",
    "DEFAULT_SOLVERS": "sat_external",
    "SolverConfig": "sat_external",
    "solve_external": "sat_external",
    "solver_available": "sat_external",
}


def _python(code):
    src = Path(lassosat.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_export_resolves_and_is_listed():
    out = _python(
        "import importlib, sys, lassosat\n"
        f"for name in {EXPORTS!r}:\n"
        "    assert name in dir(lassosat), name\n"
        "    value = getattr(lassosat, name)\n"
        "    namespace = {}\n"
        "    exec(f'from lassosat import {name}', namespace)\n"
        "    assert namespace[name] is value, name\n"
        "print('ok')\n"
    )
    assert out == "ok\n"


def test_lazy_exports_load_their_module_on_first_use():
    for name, module in LAZY.items():
        out = _python(
            "import sys, lassosat\n"
            f"before = 'lassosat.{module}' in sys.modules\n"
            f"value = lassosat.{name}\n"
            f"print(before, value is getattr(sys.modules['lassosat.{module}'], {name!r}))\n"
        )
        assert out == "False True\n", name
    out = _python(
        "import sys\n"
        f"from lassosat import {', '.join(LAZY)}\n"
        "print(sorted(m for m in sys.modules if m in "
        f"{sorted({'lassosat.' + m for m in LAZY.values()})!r}))\n"
    )
    assert out == repr(sorted({"lassosat." + m for m in LAZY.values()})) + "\n"


def test_an_unknown_name_raises_attribute_error():
    out = _python(
        "import lassosat\n"
        "for name in ('no_such_name', 'parse_dimacs', 'expand_case', 'parse_formula'):\n"
        "    try:\n"
        "        getattr(lassosat, name)\n"
        "    except AttributeError as exc:\n"
        "        print(exc)\n"
        "try:\n"
        "    from lassosat import no_such_name\n"
        "except ImportError:\n"
        "    print('ImportError')\n"
    )
    assert out == (
        "module 'lassosat' has no attribute 'no_such_name'\n"
        "module 'lassosat' has no attribute 'parse_dimacs'\n"
        "module 'lassosat' has no attribute 'expand_case'\n"
        "module 'lassosat' has no attribute 'parse_formula'\n"
        "ImportError\n"
    )

