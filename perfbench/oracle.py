"""Exact-answer check against the constrained-Dijkstra skyline.

One ``skyline_search`` per distinct source gives the exact skyline
``P_st`` to every target; the exact CSP answer for budget ``C`` is the
minimum-weight member of ``P_st`` with cost ``<= C``.  Runs outside all
timed regions.
"""

from __future__ import annotations

import bisect
import math
from collections import defaultdict
from typing import Iterable

from repro.baselines.sky_dijkstra import skyline_search

Pair = tuple[int, int]
# (source, target, budget, weight or None, cost or None)
Answer = tuple[int, int, float, float | None, float | None]


def frontiers(
    network, pairs: Iterable[Pair], budgets: Iterable[float] | None = None
) -> dict[Pair, list]:
    """The exact skyline ``[(weight, cost), ...]`` (cost ascending) of
    every requested pair, on ``network``.

    With ``budgets`` (one per pair), each search drops labels costlier
    than the largest budget asked from its source: the skyline is then
    exact up to that cost, which is all :func:`expected` reads.
    """
    targets: dict[int, set[int]] = defaultdict(set)
    limit: dict[int, float] = {}
    pairs = list(pairs)
    for (s, t), budget in zip(
        pairs, budgets if budgets is not None else [None] * len(pairs),
        strict=True,
    ):
        targets[s].add(t)
        if budget is not None:
            limit[s] = max(limit.get(s, budget), budget)
    out: dict[Pair, list] = {}
    for s in sorted(targets):
        sets = skyline_search(network, s, max_cost=limit.get(s))
        for t in targets[s]:
            out[(s, t)] = [(entry[0], entry[1]) for entry in sets[t]]
    return out


def expected(frontier: list, budget: float) -> tuple[float, float] | None:
    """The exact ``(weight, cost)`` answer, or ``None`` if infeasible."""
    idx = bisect.bisect_right([c for _w, c in frontier], budget) - 1
    return frontier[idx] if idx >= 0 else None


def _same(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def wrong_answers(
    fronts: dict[Pair, list], answers: Iterable[Answer]
) -> list[tuple[Answer, tuple[float, float] | None]]:
    """Every answer that differs from the exact one, with the exact one."""
    wrong = []
    for answer in answers:
        s, t, budget, weight, cost = answer
        want = expected(fronts[(s, t)], budget)
        if want is None:
            ok = weight is None and cost is None
        else:
            ok = (
                weight is not None and cost is not None
                and _same(weight, want[0]) and _same(cost, want[1])
            )
        if not ok:
            wrong.append((answer, want))
    return wrong
