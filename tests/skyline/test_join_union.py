"""``join_union`` against the reference ``merge(acc, join(...))`` fold.

The fused kernel sorts all candidate products once, sweeps once and
skips strictly dominated products early; the reference joins each part
separately and folds the results pairwise.  They must agree not only on
the ``(w, c)`` pairs but on *which* path represents each pair — the tie
rule (earliest part, then earliest ``(left, right)`` product) decides
the provenance labels are built from, and so the expanded paths.

Small integer metrics force equal ``(w, c)`` products across parts and
within one product grid; the float variant adds sums that do not round
the way their terms suggest (``0.1 + 0.2 != 0.3``).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.skyline import is_canonical, join, join_union, merge, skyline_of
from repro.skyline.entries import JOIN

INT_METRIC = st.integers(min_value=1, max_value=12)
FLOAT_METRIC = st.sampled_from([0.1, 0.2, 0.3, 0.5, 0.7, 1.5, 2.25])


@st.composite
def canonical_sets(draw, metric):
    """A canonical skyline set whose entries carry unique provenance.

    Each entry's provenance is a unique tag, or ``None`` (as in an
    index built with ``store_paths=False``).
    """
    pairs = draw(st.lists(st.tuples(metric, metric), max_size=8))
    sky = skyline_of([(w, c, None) for w, c in pairs])
    tag = draw(st.integers(min_value=0, max_value=10**6))
    out = []
    for i, (w, c, _) in enumerate(sky):
        with_prov = draw(st.integers(min_value=0, max_value=5)) > 0
        out.append((w, c, ("edge", tag, i) if with_prov else None))
    return out


def part_lists(metric):
    """Lists of ``(a, b, mid)`` parts, some pass-through, some empty."""
    sets = canonical_sets(metric)
    part = st.tuples(
        sets,
        st.one_of(st.none(), sets),
        st.integers(min_value=0, max_value=3),  # mids repeat across parts
    )
    return st.lists(part, max_size=6)


def reference(parts):
    acc = []
    for a, b, mid in parts:
        part = list(a) if b is None else join(a, b, mid)
        acc = merge(acc, part) if acc else list(part)
    return acc


def provenance(entry):
    prov = entry[2]
    if prov is not None and prov[0] == JOIN:
        _tag, mid, left, right = prov
        return (mid, left[:2], right[:2])
    return prov


def assert_same(parts):
    got = join_union(parts)
    want = reference(parts)
    assert is_canonical(got)
    assert [e[:2] for e in got] == [e[:2] for e in want]
    assert [provenance(e) for e in got] == [provenance(e) for e in want]
    # Full equality compares the children's unique tags too: the very
    # same child entries were picked, not merely equal-valued ones.
    assert got == want


@settings(max_examples=400)
@given(part_lists(INT_METRIC))
def test_join_union_equals_reference_fold(parts):
    assert_same(parts)


@settings(max_examples=200)
@given(part_lists(FLOAT_METRIC))
def test_join_union_equals_reference_fold_floats(parts):
    assert_same(parts)


def test_equal_products_within_one_grid_keep_the_first():
    a = [(5, 1, ("edge", 0, 0)), (3, 2, ("edge", 0, 1))]
    b = [(3, 1, ("edge", 1, 0)), (1, 2, ("edge", 1, 1))]
    # a[0]+b[1] and a[1]+b[0] are both (6, 3); the (0, 1) product wins.
    got = join_union([(a, b, 9)])
    assert [e[:2] for e in got] == [(8, 2), (6, 3), (4, 4)]
    assert got[1][2] == (JOIN, 9, a[0], b[1])
    assert got == join(a, b, 9)


def test_equal_pairs_across_parts_keep_the_earliest_part():
    first = [(3, 3, ("edge", 0, 0))]
    second = [(3, 3, ("edge", 1, 0))]
    assert join_union([(first, None, 0), (second, None, 1)]) == first
    assert join_union([(second, None, 1), (first, None, 0)]) == second


def test_empty_and_missing_parts():
    a = [(1, 2, None)]
    assert join_union([]) == []
    assert join_union([([], None, 0), ([], a, 1), (a, [], 2)]) == []
    assert join_union([([], a, 1), (a, None, 2)]) == a
