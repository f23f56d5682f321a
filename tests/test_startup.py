"""Start-up: importing qlambert loads every module and does no work.

Each check runs in a fresh interpreter, since the test session has long
since imported everything and parsed the catalog.  A benchmark tracer that
wraps the modules' entry points from outside relies on ``import
qlambert.cli`` loading every module of the package.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import qlambert

PACKAGE = Path(qlambert.__file__).resolve().parent

#: prints the loaded qlambert modules and what start-up work was done
_REPORT = """
import json, sys
from qlambert import catalog, constructors, level14
print(json.dumps({
    "modules": sorted(m for m in sys.modules if m.split(".")[0] == "qlambert"),
    "catalog_loaded": catalog.load_catalog.cache_info().currsize,
    "polynomials_built": level14._polynomials.cache_info().currsize,
    "statements": constructors._memo_statement.cache_info()._asdict(),
}))
"""


def _fresh(code: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-c", code + _REPORT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_the_cli_loads_every_module_and_does_no_work():
    report = _fresh("import qlambert.cli\n")
    modules = {f"qlambert.{path.stem}" for path in PACKAGE.glob("*.py")}
    modules = {"qlambert"} | modules - {"qlambert.__init__"}
    assert modules <= set(report["modules"])
    assert report["catalog_loaded"] == 0
    assert report["polynomials_built"] == 0
    # no quotient is stated at import: the symbol table's quotients are
    # stated on first use
    statements = report["statements"]
    assert statements["currsize"] == statements["hits"] == statements["misses"] == 0


def test_expand_parses_no_catalog_entry():
    report = _fresh(
        "import contextlib, io\n"
        "from qlambert.cli import main\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    code = main(['expand', 'eta(1)', '--order', '5'])\n"
        "assert code == 0, code\n"
        "assert out.getvalue().startswith('q^(1/24) - q^(25/24)'), out.getvalue()\n"
    )
    assert report["catalog_loaded"] == 0
    assert report["polynomials_built"] == 0


def test_a_polynomial_name_reads_the_catalog_once():
    report = _fresh(
        "from qlambert import level14\n"
        "assert level14.K_POLY is level14._polynomials()['K_POLY']\n"
        "from qlambert.level14 import F3_RELATION\n"
    )
    assert report["catalog_loaded"] == 1
    assert report["polynomials_built"] == 1


def test_the_symbol_texts_are_parsed_on_first_use():
    # constructors imports no DSL at start-up: the first build of a text
    # symbol imports it and parses the texts that build needs
    tests = Path(__file__).resolve().parent
    _fresh(
        "import sys\n"
        "import qlambert.constructors as constructors\n"
        "assert 'qlambert.dsl' not in sys.modules\n"
        "assert constructors._symbol_tree.cache_info().currsize == 0\n"
        f"sys.path.insert(0, {str(tests)!r})\n"
        "import products_oracle\n"
        "got = constructors.gosper_symbols('f', 10)\n"
        "want = products_oracle.symbol('f', 10)\n"
        "fields = lambda s: (s.v, s.D, s.T, s.L, s.coeffs)\n"
        "assert fields(got) == fields(want), (got, want)\n"
        "assert 'qlambert.dsl' in sys.modules\n"
        "assert constructors._symbol_tree.cache_info().currsize == 3\n"
    )
