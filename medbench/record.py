"""Record the output digests the benchmark's correctness gate compares with.

    python3 medbench/record.py [FIRST LAST]     (default: seeds 0 to 31)

Runs every input of every workload once per seed and writes
``medbench/digests.json``: per "workload/seed", one digest per input, in
loop order. A codec digest covers the ``.wbc`` container and the
reconstructed PGM, a link digest the 36 timing rows and the verdict.
Record only at a commit whose output is known to be right: later
commits must reproduce these bytes exactly.
"""

from __future__ import annotations

import json
import sys

from run import DIGESTS_FILE, OPS, WORKLOADS


def record(seeds) -> dict[str, list[str]]:
    table = {}
    for workload in WORKLOADS.values():
        op = OPS[workload.kind]
        for seed in seeds:
            digests = []
            for item in workload.make(seed):
                _, digest, problem = op(item)
                if problem is not None:
                    raise SystemExit(f"{workload.name} seed {seed} {item.label}: {problem}")
                digests.append(digest)
            table[f"{workload.name}/{seed}"] = digests
            print(f"{workload.name} seed {seed}: {len(digests)} inputs", flush=True)
    return table


def main(argv) -> int:
    first, last = (int(a) for a in argv) if argv else (0, 31)
    table = record(range(first, last + 1))
    lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in table.items()]
    DIGESTS_FILE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
