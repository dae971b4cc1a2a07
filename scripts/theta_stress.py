#!/usr/bin/env python3
"""Stress the Lovasz theta solver on 6000 seeded random graphs.

Graph k of the family has n = 2-16 vertices and edge density 0.05-0.95;
its weights are all 1 when k % 3 == 0, each 0, 1 or a fraction k/d
(k <= 21, d <= 7) when k % 3 == 1, and integers 0-50 when k % 3 == 2.
Every graph must reach the default 1e-7 gap, every graph that closes
exactly (stop "clique_cover") must report the value float(alpha), and no
fewer graphs of each kind may close exactly than ``CLOSED_FLOOR`` says:
a closure lost, by a change to the clique-cover checks, fails the run.

Prints one summary line per weight kind and a total, and exits 1 on any
failure.  Run as  PYTHONPATH=src python3 scripts/theta_stress.py
"""

import random
import sys
from fractions import Fraction

from exclusivity import graphs
from exclusivity.scenario import ExclusivityGraph, GraphVertex

SEED = 20261020
COUNT = 6000
KINDS = ("unit", "fraction", "integer")
# exact closures per weight kind, 5840 of 6000 in all
CLOSED_FLOOR = {"unit": 1893, "fraction": 1993, "integer": 1954}


def stress_family():
    """(k, graph) for k in 0..COUNT-1, drawn in order from one seeded stream."""
    rng = random.Random(SEED)
    for k in range(COUNT):
        n = rng.randint(2, 16)
        d = rng.uniform(0.05, 0.95)
        edges = tuple((i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < d)
        if k % 3 == 0:
            weights = [1] * n
        elif k % 3 == 1:
            weights = [
                rng.choice([0, 1, Fraction(rng.randint(1, 21), rng.randint(1, 7))])
                for _ in range(n)
            ]
        else:
            weights = [rng.randint(0, 50) for _ in range(n)]
        yield k, ExclusivityGraph(
            vertices=tuple(GraphVertex(id=i, weight=w) for i, w in enumerate(weights)),
            edges=edges,
        )


def main() -> int:
    closed = {kind: 0 for kind in KINDS}
    iterations = {kind: 0 for kind in KINDS}
    failures = []
    for k, graph in stress_family():
        kind = KINDS[k % 3]
        try:
            result = graphs.lovasz_theta(graph)
        except graphs.ThetaNonConvergenceError as err:
            failures.append(f"graph {k} (n {graph.n}): {err}")
            continue
        iterations[kind] += result.iterations
        if result.stop == "clique_cover":
            closed[kind] += 1
            alpha, _ = graphs.independence_number(graph)
            if result.value != float(alpha):
                failures.append(
                    f"graph {k} (n {graph.n}): closed at {result.value!r}, alpha {alpha}"
                )
    for kind in KINDS:
        print(f"{kind}: {closed[kind]} of {COUNT // 3} closed exactly, "
              f"{iterations[kind]} interior-point iterations")
        if closed[kind] < CLOSED_FLOOR[kind]:
            failures.append(
                f"{kind}: {closed[kind]} closed exactly, fewer than {CLOSED_FLOOR[kind]}"
            )
    print(f"total: {sum(closed.values())} of {COUNT} closed exactly, "
          f"{sum(iterations.values())} interior-point iterations, {len(failures)} failures")
    for line in failures:
        print(f"FAIL {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
