"""Write the stored reference outputs for the pinned seeds.

    python3 perfbench/make_reference.py

For each workload and pinned seed, serves the first REFERENCE_ROUNDS rounds
of the seed's pool once and stores every record's decided fields and floats
in reference/<workload>.json.gz.  Regenerate only when the workload design
changes or an intended change to the program's output lands; the benchmark
compares later runs of these seeds against it.
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import sys
import tempfile

import run
from check import normalize, parse_records, reference_rows
from workloads import WORKLOADS

PINNED_SEEDS = (1, 2, 3)
REFERENCE_ROUNDS = {"corpus-sweep": 5, "lp-search": 4}


def main() -> int:
    run.pin_threads()
    cli = run.import_program()
    os.makedirs(run.SCRATCH, exist_ok=True)
    os.makedirs(run.REFERENCE_DIR, exist_ok=True)
    for workload, rounds in REFERENCE_ROUNDS.items():
        reference = {}
        for seed in PINNED_SEEDS:
            workdir = tempfile.mkdtemp(prefix="reference-", dir=run.SCRATCH)
            try:
                pool = WORKLOADS[workload](seed, workdir)[:rounds]
                rows = []
                for slot, request in enumerate(r for batch in pool for r in batch):
                    path = os.path.join(workdir, f"out-{slot}.jsonl")
                    _, code, error = run.call(cli, request, path)
                    if code != 0 or error:
                        sys.stderr.write(f"{workload} seed {seed} slot {slot}: exit {code} {error or ''}\n")
                        return 1
                    with open(path, encoding="utf-8") as fh:
                        rows.append(reference_rows(normalize(parse_records(fh.read()), workdir)))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            reference[str(seed)] = rows
            print(f"{workload} seed {seed}: {sum(len(r) for r in rows)} records", flush=True)
        path = os.path.join(run.REFERENCE_DIR, f"{workload}.json.gz")
        with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(json.dumps(reference, separators=(",", ":")).encode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
