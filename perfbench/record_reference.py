"""Record the reference outputs the benchmark checks its runs against.

Runs every workload once per recorded corpus seed (simulate once) at one
thread and writes `reference.json` next to this file. Run it from the root
of a checkout, only at a commit whose outputs are trusted:

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import ROOT, WORK_DIR, child_env
from workloads import FUZZ_SEEDS, REFERENCE_PATH, WORKLOADS, reference_key


def main() -> int:
    reference = {}
    for workload in WORKLOADS.values():
        for seed in FUZZ_SEEDS if workload.seeded else (None,):
            run_dir = WORK_DIR / "reference"
            shutil.rmtree(run_dir, ignore_errors=True)
            run_dir.mkdir(parents=True)
            argv = workload.build_argv(seed)
            cmd = [sys.executable, "-m", "fracpme.harness", *argv]
            subprocess.run(cmd, cwd=run_dir, env=child_env(1), check=True, stdout=subprocess.DEVNULL)
            observed = workload.observe(run_dir)
            problems = workload.check(observed, None)
            if problems:
                print(f"{workload.name} seed {seed}: {problems}", file=sys.stderr)
                return 1
            reference[reference_key(workload, seed)] = observed
            print(f"{reference_key(workload, seed)}: recorded", flush=True)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    shutil.rmtree(WORK_DIR / "reference", ignore_errors=True)
    print(f"wrote {REFERENCE_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
