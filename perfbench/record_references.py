"""Record the reference outputs of every input set of the benchmark workloads.

    python3 perfbench/record_references.py [WORKLOAD ...]

Run from the repository root, on a commit whose outputs are trusted: every
later benchmark run is checked against what this writes to
``perfbench/references/<workload>.json``. A workload whose run fails any
operation is not written.
"""

import json
import math
import os
import sys

from run import HERE, ROOT, THREAD_VARS, THREADS, WORKLOAD_NAMES, environment


def plain(value):
    """JSON-safe copy: nan (an undefined output, such as one realization's stderr) becomes null."""
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    return value


def main(names) -> int:
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import bench_workloads as bw

    for name in names or WORKLOAD_NAMES:
        make_inputs, run = bw.WORKLOADS[name]
        sets = {}
        for s in range(bw.INPUT_SETS):
            ledger = bw.Ledger()
            outputs = run(make_inputs(s), ledger)
            if ledger.failed:
                print(f"{name} set {s}: {ledger.errors}", file=sys.stderr)
                return 1
            sets[str(s)] = {k: plain(v) for k, v in outputs.items()}
            print(f"{name} set {s} done", flush=True)
        record = {"workload": name, "input_sets": bw.INPUT_SETS, "env": environment(THREADS), "sets": sets}
        bw.reference_path(name).parent.mkdir(exist_ok=True)
        bw.reference_path(name).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
