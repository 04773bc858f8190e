"""Freeze the digest of every operation's output into digests.json.

    python3 perfbench/freeze_digests.py

Run only when a change is meant to alter outputs.  It refuses to freeze an
output that fails its check, or an operation whose repeated runs (the two
evaluation pairs of a fusion pair) disagree.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    frozen = {}
    for workload in workloads.WORKLOADS:
        _, _, ops = run.set_up(workload, 0, "full")
        digests: dict[str, str] = {}
        for op in ops:
            ok, text = op.run()
            if not ok:
                print(f"{op.key}: output check failed; nothing frozen", file=sys.stderr)
                return 1
            if digests.setdefault(op.key, run.digest(text)) != run.digest(text):
                print(f"{op.key}: outputs differ between runs; nothing frozen", file=sys.stderr)
                return 1
        frozen[workload] = dict(sorted(digests.items()))
        print(f"{workload}: {len(digests)} digests")
    run.DIGESTS.write_text(json.dumps(frozen, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
