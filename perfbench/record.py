#!/usr/bin/env python3
"""Record the expected result of (workload, seed) pairs into ``expected.json``.

Every benchmark run compares its results with these records, so regenerate
them only for a change that is meant to alter results, and say why in the
change's notes.  Run from the repository root, for example::

    python3 perfbench/record.py --workload attack-resnet20 --seeds 0-15,9001
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List

import run


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOAD_NAMES)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 0-19,9001")
    args = parser.parse_args(argv)
    if not run.bootstrap():
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    expected = run.load_expected()
    for seed in args.seeds:
        run.fill(args.workload, seed)
        prepared = workload.prepare(seed)
        if args.workload == "sweep-table2":
            _, result = workload.drain(prepared, workers=1)
            if result.failures:
                raise RuntimeError(f"seed {seed}: {len(result.failures)} task(s) failed")
            record = workload.record(result)
        else:
            _, record, _ = workload.run_op(prepared, workload.new_op(prepared))
        errors = workload.invariant_errors(record)
        if errors:
            raise RuntimeError(f"seed {seed}: {errors}")
        entry = {"victim_ta": workload.victim_ta(prepared), "record": record}
        expected.setdefault(workload.name, {})[str(seed)] = workloads.plain(entry)
        with open(run.EXPECTED, "w") as handle:
            json.dump(expected, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"{workload.name} seed {seed}: recorded", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
