"""Record every space's expected stdout sha256 and exit code in expected.json.

    python3 perfbench/record_expected.py

Run it at the commit whose outputs are the reference.  `golden` is recorded
as it stands: `verify` exits 1 with `50/52 pass`, because the two disputed
degree-4 rows fail by design.
"""

import json
import sys
from pathlib import Path

from worker import run_pass
from workloads import WORKLOADS, spaces


def main() -> int:
    table = {}
    for workload in WORKLOADS:
        _, records = run_pass(spaces(workload, 0))
        for r in records:
            if r["error"] is not None:
                print(f"{workload}: {r['space']}: {r['error']}", file=sys.stderr)
                return 1
        table[workload] = {r["space"]: {"exit": r["exit"], "sha256": r["sha256"]} for r in records}
        if workload == "golden" and (records[0]["exit"], records[0]["last_line"]) != (1, "50/52 pass"):
            print(f"golden: unexpected verdict {records[0]['last_line']!r}", file=sys.stderr)
            return 1
        print(f"{workload}: {len(records)} spaces", file=sys.stderr)
    path = Path(__file__).resolve().parent / "expected.json"
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
