"""The CLI runs on numpy alone: importing `fracpme.harness`, and running a
small `simulate` and `verify` through `harness.main`, loads no scipy module
and no numpy.ma module (np.median would import it). `riesz-convergence`
loads no scipy module either, at the log kernel's s = 1/2 too: its
reference is the closed form of the steady potential, not a quadrature.
Nor does `steady.steady_energy`, a closed form at every s: no module of the
package imports scipy, which only the tests need.

Structural guards with no timing: each check runs in a fresh child
interpreter, because this test process imports scipy itself.
"""

import json

from conftest import run_python

# Prints the sorted names of the scipy and of the numpy.ma modules loaded once BODY has run.
REPORT = """
import json, sys
{body}
print(json.dumps([
    sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
    sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")),
]))
"""

RUN_BOTH = """
from fracpme.harness import main
simulate = (
    "simulate --s 0.25 --lambda auto --grid-n 128 --xmax 4 --dt cfl:0.5 "
    "--t-end 0.1 --init barenblatt-shift:0.5 --out-dir out"
)
verify = (
    "verify --suite hwi,lsi,talagrand,gns,lemmaE,interp,remainder,virial "
    "--samples 3 --seed 42 --s 0.25 --lambda 0.4 --out report.json"
)
assert main(simulate.split()) == 0
assert main(verify.split()) == 0
"""


def modules_after(body: str, cwd) -> tuple[list[str], list[str]]:
    """The scipy modules and the numpy.ma modules loaded once body has run."""
    proc = run_python(["-c", REPORT.format(body=body)], cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    scipy, numpy_ma = json.loads(proc.stdout.splitlines()[-1])
    return scipy, numpy_ma


def test_importing_the_cli_loads_no_scipy(tmp_path):
    assert modules_after("import fracpme.harness", tmp_path) == ([], [])


def test_simulate_and_verify_load_no_scipy(tmp_path):
    assert modules_after(RUN_BOTH, tmp_path) == ([], [])
    # the run has step sizes to summarise: dt_median is where np.median was taken
    assert json.loads((tmp_path / "out" / "stats.json").read_text())["dt_median"] is not None
    assert json.loads((tmp_path / "report.json").read_text())["pass"]


def test_riesz_convergence_at_half_loads_no_scipy(tmp_path):
    body = 'from fracpme.harness import main\nassert main("riesz-convergence --s 0.5 --levels 2".split()) == 0'
    assert modules_after(body, tmp_path)[0] == []


def test_steady_energy_loads_no_scipy(tmp_path):
    body = (
        "from fracpme.steady import barenblatt, steady_energy\n"
        "for s in (0.25, 0.5):\n"
        "    steady_energy(barenblatt(s, 0.4, mass=1.0)[0])"
    )
    assert modules_after(body, tmp_path)[0] == []
