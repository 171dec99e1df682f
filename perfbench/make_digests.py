"""Regenerate digests.json: run every workload once at the default seed and
record the sha256 of each artifact. Run it only at a commit whose outputs
are known good (the digests define what the benchmark accepts):

    python3 perfbench/make_digests.py
"""

import json
import os
import sys

import artifacts
import run
import workloads


def main() -> int:
    os.chdir(run.ROOT)
    run.import_program()
    digests = {}
    for workload in workloads.WORKLOADS:
        ops = workloads.prepare(workload, artifacts.DEFAULT_SEED)
        _, _, errors = run.run_rep(workload, ops, artifacts.DEFAULT_SEED)
        reference = {}
        problems = run.check_rep(ops, artifacts.DEFAULT_SEED, reference)
        bad = [(op.name, e, p) for op, e, p in zip(ops, errors, problems) if e or p]
        if bad:
            print(f"{workload}: not writing digests, failed: {bad}", file=sys.stderr)
            return 1
        digests[workload] = reference
        print(f"{workload}: {sum(len(v) for v in reference.values())} artifacts")
    artifacts.DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
