"""The benchmark's workloads, each a list of `hurmono` CLI argv lists.

One argv is one *space*: a single `hurmono.cli.main(argv)` call with default
flags.  Spaces are written `degrees / genera / profiles` in the docs.

- golden: one `verify` over the 52 shipped rows.  Dominated by the marking
          sweep, the `tuple_key` sheet index and components of the
          13,824-sheet row; canonicalization is near zero since d <= 5.
          The only workload that runs the golden layer.
- scan-7: one empty `report` on 6,1 / 6,0 / 3,3,1;7;7;7 whose 518,400
          prefixes all go through class generation and the cycle-type and
          signature filters (147,744 pass the first, none the second: a
          7-cycle forces a connected cover).  The only workload where the
          scan does the work.

Each has a single space, so the seed leaves the inputs unchanged.
"""

from __future__ import annotations

WORKLOADS = ("golden", "scan-7")


def spaces(workload: str, seed: int) -> list[list[str]]:
    """The argv lists of a workload for a seed."""
    if workload == "golden":
        return [["verify"]]
    if workload == "scan-7":
        return [["report", "--degrees", "6,1", "--genera", "6,0", "--profiles", "3,3,1;7;7;7"]]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def space_id(argv: list[str]) -> str:
    """The key under which a space's expected output is recorded."""
    return " ".join(argv)
