"""The CLI runs on numpy alone: importing `fracpme.harness`, and running a
small `simulate` and `verify` through `harness.main`, loads no scipy module.

Structural guards with no timing: each check runs in a fresh child
interpreter, because this test process imports scipy itself.
"""

import json

from conftest import run_python

# Prints the sorted names of the scipy modules loaded once BODY has run.
REPORT = """
import json, sys
{body}
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""

RUN_BOTH = """
from fracpme.harness import main
simulate = (
    "simulate --s 0.25 --lambda auto --grid-n 128 --xmax 4 --dt cfl:0.5 "
    "--t-end 0.05 --init barenblatt-shift:0.5 --out-dir out"
)
verify = (
    "verify --suite hwi,lsi,talagrand,gns,lemmaE,interp,remainder,virial "
    "--samples 3 --seed 42 --s 0.25 --lambda 0.4 --out report.json"
)
assert main(simulate.split()) == 0
assert main(verify.split()) == 0
"""


def scipy_modules_after(body: str, cwd) -> list[str]:
    proc = run_python(["-c", REPORT.format(body=body)], cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_cli_loads_no_scipy(tmp_path):
    assert scipy_modules_after("import fracpme.harness", tmp_path) == []


def test_simulate_and_verify_load_no_scipy(tmp_path):
    assert scipy_modules_after(RUN_BOTH, tmp_path) == []
    assert (tmp_path / "out" / "stats.json").exists()
    assert json.loads((tmp_path / "report.json").read_text())["pass"]
