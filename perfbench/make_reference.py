"""Record the reference output digests that ``run.py`` checks against.

Runs every operation a benchmark run can reach (each workload's
``max_ops``) on the workload's default seed and writes
``reference_digests.json``.  Run it from the root of a
checkout of the commit whose outputs are the reference::

    python3 perfbench/make_reference.py

Regenerate only when a change is meant to alter the program's output bytes.
"""

import json
import os
import shutil
import sys

import run
import workloads


def main():
    looprc = run.import_looprc()
    table = {}
    for name, cls in sorted(workloads.WORKLOADS.items()):
        work = os.path.join(run.WORK, f"reference-{name}")
        shutil.rmtree(work, ignore_errors=True)
        workload = cls(work, cls.default_seed)
        workload.setup(looprc.cli, fresh=True)
        digests = []
        for i in range(workload.max_ops):
            _, result = workload.run_op(looprc.cli, i, lambda: 0.0)
            if result.problems:
                raise SystemExit(f"{name} operation {i} failed: {result.problems}")
            digests.append(result.digest)
        table[name] = {str(cls.default_seed): digests}
        print(f"{name}: {len(digests)} digests", flush=True)
    with open(os.path.join(run.HERE, "reference_digests.json"), "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
