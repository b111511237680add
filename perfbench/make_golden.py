"""Record the seed-0 golden profile and fracture tables.

    python3 perfbench/make_golden.py

Runs every workload's seed-0 operations once and stores the profile and
fracture CSVs of each checked ``run`` in ``perfbench/golden/seed0.npz``.
Rerun only when the expected outputs change on purpose.
"""

from __future__ import annotations

import shutil
import sys

import run


def main() -> int:
    run.pin_threads()
    cli = run.load_program()
    import numpy as np

    from workloads import GOLDEN_FILE, WORKLOADS, make_workload, output_tables

    work = run.WORK / "golden"
    shutil.rmtree(work, ignore_errors=True)
    tables = {}
    try:
        for name in WORKLOADS:
            workload = make_workload(name, 0)
            run.prepare(workload, work)
            for op in workload.operations:
                if not op.golden:
                    continue
                outcome = run.run_operation(cli, op, work, None)
                if outcome.failed:
                    print(f"{op.key}: {outcome.problems}", file=sys.stderr)
                    return 1
                for fname, (_, data) in output_tables(work / op.key).items():
                    tables[f"{op.key}/{fname}"] = data
                print(f"{op.key}: {outcome.seconds:.2f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    GOLDEN_FILE.parent.mkdir(exist_ok=True)
    np.savez_compressed(GOLDEN_FILE, **tables)
    print(f"wrote {len(tables)} tables to {GOLDEN_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
