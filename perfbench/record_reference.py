"""Record the document hashes the benchmark checks on the default seed.

    python3 perfbench/record_reference.py

Runs every op of the default seed of each workload in
``workloads.RECORDED`` once and writes the SHA-256 of each op's canonical document to
``perfbench/reference/default_seed.json``.  It is the only path that
runs those workloads on the default seed without the reference.  Run it only on a commit whose
output is trusted: later runs compare against what it writes.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import weylstd  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, RECORDED, REFERENCE_FILE, Session, doc_hash, make_inputs,
)


def main():
    reference = {}
    for name in RECORDED:
        session = Session(weylstd, make_inputs(name, DEFAULT_SEED), check_reference=False)
        session.setup()
        reference[name] = [doc_hash(session.run_op(i).doc) for i in range(len(session.ideals))]
    REFERENCE_FILE.parent.mkdir(exist_ok=True)
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {sum(map(len, reference.values()))} hashes to {REFERENCE_FILE}")


if __name__ == "__main__":
    main()
