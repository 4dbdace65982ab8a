"""Operations on skyline path sets (paper §2.2).

A *skyline set* is the canonical representation of ``P_st``: a list of
entries sorted by strictly increasing cost and therefore strictly
decreasing weight, with no entry dominated by another (Definitions 4-6).
One representative is kept per ``(w, c)`` pair — the paper's queries only
ever need one optimal path per pair.

This module is the hot kernel of the whole reproduction.  Every
"skyline of a union of joins" — the tree decomposition's shortcut
fold, the label recurrence ``P(v,u) = skyline(⋃_w S(v,w) ⊗ P(w,u))``,
live-update repair, and the cached engine's full-frontier path — is one
:func:`join_union` call.  :func:`join` and :func:`merge` remain as the
reference implementation of the same algebra (a per-part join followed
by a pairwise merge fold); the property tests hold the two equal.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Sequence

from repro.skyline.compare import costs_equal
from repro.skyline.entries import Entry, join_entry

SkylineSet = list[Entry]

JoinPart = tuple[Sequence[Entry], Sequence[Entry] | None, int]
"""``(a, b, mid)``: the products ``a ⊗_mid b``, or ``a`` as-is when
``b is None``."""


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Whether path pair ``a`` dominates ``b`` (Definition 4).

    ``a ≺ b`` iff a is at least as good on both metrics and strictly
    better on one.
    """
    return a[0] <= b[0] and a[1] <= b[1] and (a[0] < b[0] or a[1] < b[1])


def is_canonical(entries: Sequence[Entry]) -> bool:
    """Whether a list is a canonical skyline set.

    Canonical means: sorted by strictly increasing cost and strictly
    decreasing weight.  (Those two conditions already imply
    dominance-freeness.)
    """
    for prev, cur in zip(entries, entries[1:], strict=False):
        if not (prev[1] < cur[1] and prev[0] > cur[0]):
            return False
    return True


def skyline_of(entries: Iterable[Entry]) -> SkylineSet:
    """The canonical skyline of an arbitrary collection of entries.

    Sorts by ``(cost, weight)`` and keeps each entry whose weight strictly
    improves on everything cheaper — the classic 2-D Pareto sweep.
    """
    result: SkylineSet = []
    best_weight: float | None = None
    last_cost: float | None = None
    for entry in sorted(entries, key=lambda e: (e[1], e[0])):
        w, c = entry[0], entry[1]
        if best_weight is not None and w >= best_weight:
            continue
        if last_cost is not None and costs_equal(c, last_cost):
            # Same cost, smaller weight: replace the previous entry.
            result[-1] = entry
        else:
            result.append(entry)
        best_weight = w
        last_cost = c
    return result


def merge(a: Sequence[Entry], b: Sequence[Entry]) -> SkylineSet:
    """Skyline of the union of two canonical skyline sets.

    Linear two-pointer merge on cost followed by the Pareto sweep; on
    equal ``(w, c)`` pairs ``a``'s entry is kept.  Together with
    :func:`join` it is the reference fold that :func:`join_union`
    evaluates in one pass.
    """
    if not a:
        return list(b)
    if not b:
        return list(a)
    merged: list[Entry] = []
    i = j = 0
    while i < len(a) and j < len(b):
        if (a[i][1], a[i][0]) <= (b[j][1], b[j][0]):
            merged.append(a[i])
            i += 1
        else:
            merged.append(b[j])
            j += 1
    merged.extend(a[i:])
    merged.extend(b[j:])

    result: SkylineSet = []
    best_weight: float | None = None
    last_cost: float | None = None
    for entry in merged:
        w, c = entry[0], entry[1]
        if best_weight is not None and w >= best_weight:
            continue
        if last_cost is not None and costs_equal(c, last_cost):
            result[-1] = entry
        else:
            result.append(entry)
        best_weight = w
        last_cost = c
    return result


def join(
    a: Sequence[Entry],
    b: Sequence[Entry],
    mid: int,
    budget: float | None = None,
) -> SkylineSet:
    """Skyline of all pairwise concatenations of two skyline sets at ``mid``.

    This is the paper's ``{p1 ⊕ p2 : p1 ∈ P_su, p2 ∈ P_uh}`` followed by a
    skyline filter.  ``budget`` optionally drops concatenations whose cost
    exceeds it (used when an overall budget is known during queries, never
    during index construction).

    Complexity is ``O(|a| |b| log)`` — the Cartesian product the paper's
    CSP-2Hop pays at query time and QHL moves to index time.  On equal
    ``(w, c)`` products the earliest ``(left, right)`` one is kept.
    Index construction evaluates whole unions of joins with
    :func:`join_union`; this is the per-part reference.
    """
    if not a or not b:
        return []
    products: list[Entry] = []
    for left in a:
        lw, lc = left[0], left[1]
        if budget is not None and lc + b[0][1] > budget:
            # b is cost-sorted: every concatenation with this left
            # overshoots the budget.
            continue
        for right in b:
            if budget is not None and lc + right[1] > budget:
                break
            products.append(join_entry(left, right, mid))
    return skyline_of(products)


def join_union(parts: Iterable[JoinPart]) -> SkylineSet:
    """``skyline(⋃ a ⊗_mid b)`` over canonical ``(a, b, mid)`` parts.

    Equal to folding ``merge(acc, join(a, b, mid))`` over the parts in
    order (a part with ``b is None`` contributing ``a`` itself), down to
    provenance: among equal ``(w, c)`` products the earliest part wins,
    and within a part the earliest ``(left, right)`` product.  Instead
    of materialising and sorting every part's products with provenance,
    it lists the candidates of all parts once, sorts them once, runs one
    Pareto sweep, and builds a :func:`~repro.skyline.entries.join_entry`
    only for the survivors.

    Two bounds skip products that are *strictly* dominated, so skipping
    them cannot change the sweep (which never keeps a dominated entry):

    * ``cost_cap`` — the cost of the lightest extreme product
      ``a[-1] ⊕ b[-1]`` (min ``(w, c)`` over the parts).  Its weight is
      the least of any product, so a dearer product is dominated by it.
    * ``weight_cap`` — the weight of the cheapest extreme product
      ``a[0] ⊕ b[0]`` (min ``(c, w)``), symmetrically.

    ``b`` is cost-sorted, so the inner loop stops at the first product
    over ``cost_cap``; ``a`` is too, so the outer loop stops likewise.
    """
    live = [
        part for part in parts
        if part[0] and (part[1] is None or part[1])
    ]
    if not live:
        return []
    lightest = min(  # (w, c) of each part's a[-1] ⊕ b[-1]
        (a[-1][0], a[-1][1]) if b is None
        else (a[-1][0] + b[-1][0], a[-1][1] + b[-1][1])
        for a, b, _mid in live
    )
    cheapest = min(  # (c, w) of each part's a[0] ⊕ b[0]
        (a[0][1], a[0][0]) if b is None
        else (a[0][1] + b[0][1], a[0][0] + b[0][0])
        for a, b, _mid in live
    )
    cost_cap = lightest[1]
    weight_cap = cheapest[1]

    # (cost, weight, seq, left, right, mid): ``seq`` is the fold order,
    # unique, so the sort never compares entries and ties resolve to
    # the earliest part / product.
    candidates: list[
        tuple[float, float, int, Entry, Entry | None, int]
    ] = []
    append = candidates.append
    seq = 0
    for a, b, mid in live:
        if b is None:
            for entry in a:
                w, c = entry[0], entry[1]
                if c > cost_cap:
                    break
                if w <= weight_cap:
                    append((c, w, seq, entry, None, mid))
                    seq += 1
            continue
        b_cost = b[0][1]
        b_weight = b[-1][0]
        for left in a:
            lw, lc = left[0], left[1]
            if lc + b_cost > cost_cap:
                break
            if lw + b_weight > weight_cap:
                continue
            for right in b:
                c = lc + right[1]
                if c > cost_cap:
                    break
                w = lw + right[0]
                if w <= weight_cap:
                    append((c, w, seq, left, right, mid))
                    seq += 1
    candidates.sort()

    # Pareto sweep: candidates come in (cost, weight, seq) order, so the
    # first one at each cost is its lightest and earliest; any later
    # one at the same cost weighs at least ``best``.
    result: SkylineSet = []
    best: float | None = None
    for _c, w, _seq, left, right, mid in candidates:
        if best is not None and w >= best:
            continue
        result.append(
            left if right is None else join_entry(left, right, mid)
        )
        best = w
    return result


def cartesian_entries(
    a: Sequence[Entry], b: Sequence[Entry], mid: int
) -> list[Entry]:
    """All pairwise concatenations, *unfiltered* and sorted by ``(c, w)``.

    Algorithm 6 of the paper needs the raw concatenation set ``P''`` in
    cost order (it checks membership of skyline paths in it, and dominated
    members still count as members).
    """
    products = [
        join_entry(left, right, mid) for left in a for right in b
    ]
    products.sort(key=lambda e: (e[1], e[0]))
    return products


def filter_under(entries: Sequence[Entry], theta: float) -> SkylineSet:
    """``P^θ = {p ∈ P : c(p) < θ}`` (strict, as defined before Theorem 1)."""
    keys = [e[1] for e in entries]
    cut = bisect.bisect_left(keys, theta)
    return list(entries[:cut])


def best_under(entries: Sequence[Entry], budget: float) -> Entry | None:
    """The minimum-weight entry with ``cost <= budget``.

    On a canonical skyline set this is simply the *last* entry within
    budget (larger cost ⇒ smaller weight), found by binary search — this
    is the paper's observation in §2.2 used for the ancestor-descendant
    query case.
    """
    keys = [e[1] for e in entries]
    idx = bisect.bisect_right(keys, budget) - 1
    if idx < 0:
        return None
    return entries[idx]


def dominated_by_set(entry: Entry, entries: Sequence[Entry]) -> bool:
    """Whether some member of a canonical set dominates ``entry``."""
    keys = [e[1] for e in entries]
    idx = bisect.bisect_right(keys, entry[1]) - 1
    if idx < 0:
        return False
    candidate = entries[idx]
    return dominates(candidate, entry)


def truncate(entries: SkylineSet, max_size: int) -> SkylineSet:
    """Keep at most ``max_size`` entries, evenly spread across the set.

    An *approximation* knob (not used by default): large real networks can
    grow skyline sets into the thousands; truncation bounds index size at
    the price of exactness.  The first and last entries (cost-optimal and
    weight-optimal paths) are always kept.
    """
    if max_size < 2:
        raise ValueError("max_size must be at least 2")
    n = len(entries)
    if n <= max_size:
        return entries
    step = (n - 1) / (max_size - 1)
    picked = [entries[round(i * step)] for i in range(max_size)]
    # Rounding can collide on tiny sets; dedupe while keeping order.
    result: SkylineSet = []
    for e in picked:
        if not result or result[-1] is not e:
            result.append(e)
    return result
