"""The case ladder: Cartan data per workload and the CLI call of each case.

Cartan matrices follow the package's convention: ``a[i][j] = <alpha_i^vee,
alpha_j>`` and ``epsilon_i = 2 / (alpha_i, alpha_i)``.  Series names follow
ROADMAP.md, so "C3" is ``[[2,-1,0],[-1,2,-1],[0,-2,2]]`` with epsilon
(1,1,2) and "B3" the transpose with epsilon (2,2,1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass


def cartan_matrix(series: str, rank: int) -> list:
    a = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(rank)]
         for i in range(rank)]
    if series == "B":
        a[rank - 2][rank - 1] = -2
    elif series == "C":
        a[rank - 1][rank - 2] = -2
    elif series == "D":
        # chain 0..rank-2, the last node attached to node rank-3
        a[rank - 2][rank - 1] = a[rank - 1][rank - 2] = 0
        a[rank - 3][rank - 1] = a[rank - 1][rank - 3] = -1
    elif series != "A":
        raise ValueError("unknown series %r" % series)
    return a


def symmetrizer(series: str, rank: int) -> list:
    if series == "B":
        return [2] * (rank - 1) + [1]
    if series == "C":
        return [1] * (rank - 1) + [2]
    return [1] * rank


@dataclass(frozen=True)
class Case:
    """One CLI call: ``gradedlie <command> --spec <spec> <flags>``."""

    id: str
    series: str
    rank: int
    lam: tuple
    command: str
    variant: str = "W"
    degrees: tuple | None = None

    def matrix(self) -> list:
        return cartan_matrix(self.series, self.rank)

    def epsilon(self) -> list:
        return symmetrizer(self.series, self.rank)

    def spec_json(self) -> str:
        return json.dumps({
            "cartan_matrix": self.matrix(),
            "epsilon": [str(e) for e in self.epsilon()],
            "lambda": list(self.lam),
        })

    def argv(self, spec: str, no_cache: bool = True,
             degrees: tuple | None = None) -> list:
        out = [self.command, "--spec", spec, "--variant", self.variant]
        degrees = degrees or self.degrees
        if degrees:
            out.append("--degrees=%d..%d" % degrees)
        if no_cache:
            out.append("--no-cache")
        return out


# Each pass of a workload runs its cases once, in an order drawn from the
# seed.  The rungs are the smallest data that keep each workload's profile
# (which modules do the work); see NOTES.md for the larger rungs left out.
WORKLOADS = {
    "iso": (
        Case("A3w2", "A", 3, (0, 1, 0), "check-iso"),
        Case("C3w1", "C", 3, (1, 0, 0), "check-iso"),
        Case("B2w2", "B", 2, (0, 1), "check-iso"),
    ),
    "relations": (
        Case("D4w4W", "D", 4, (0, 0, 0, 1), "tha-minus1", "W"),
        Case("D4w4S", "D", 4, (0, 0, 0, 1), "tha-minus1", "S"),
        Case("A4w2W", "A", 4, (0, 1, 0, 0), "tha-minus1", "W"),
    ),
    "extend": (
        Case("A4w1W", "A", 4, (1, 0, 0, 0), "cartanify", "W", (-5, 1)),
        Case("A4w1S", "A", 4, (1, 0, 0, 0), "cartanify", "S", (-5, 1)),
    ),
    # cold, warm and widened check-all against one fresh cache directory;
    # the order is fixed because each step depends on the one before.
    "rerun": (
        Case("C2w1", "C", 2, (1, 0), "check-all"),
    ),
}

RERUN_WIDEN = (-5, 1)
