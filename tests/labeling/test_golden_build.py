"""Golden pin of whole index builds on the three small datasets.

``tests/golden/label_digests.json`` freezes, for NY, BAY and COL at
scale ``small``:

* the sha256 of the packed labels (:func:`repro.storage.compact.
  pack_labels` — every ``(weight, cost)`` of every ``P(v, u)``);
* the sha256 of the tree decomposition's shortcut sets;
* the sha256 of every label entry's provenance (junction vertex and
  both child ``(w, c)`` pairs);
* 20 seeded queries with their answers and *expanded paths*, which pin
  the provenance tie rule (which of several equal ``(w, c)`` paths a
  label keeps).

Sequential-vs-parallel tests cannot catch a change of the label
kernel itself, because both sides run the same kernel; this file can.
Regenerate it (only for an intended change of the index) with::

    PYTHONPATH=src python tests/labeling/test_golden_build.py --write
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.baselines.sky_dijkstra import skyline_between
from repro.core import QHLIndex
from repro.datasets import DATASET_NAMES, load_dataset
from repro.storage.compact import pack_labels

GOLDEN_PATH = (
    Path(__file__).parent.parent / "golden" / "label_digests.json"
)
QUERIES_PER_DATASET = 20
QUERY_SEED = 2023


def build_index(name: str) -> QHLIndex:
    network = load_dataset(name, "small").network
    return QHLIndex.build(network, num_index_queries=200, seed=7)


def labels_sha256(index: QHLIndex) -> str:
    packed = pack_labels(index.labels)
    digest = hashlib.sha256(str(packed.num_vertices).encode())
    for column in (
        packed.set_offsets, packed.hubs, packed.entry_offsets,
        packed.weights, packed.costs,
    ):
        digest.update(column.tobytes())
    return digest.hexdigest()


def shortcuts_sha256(index: QHLIndex) -> str:
    tree = index.tree
    rows = [
        [v, w, [[e[0], e[1]] for e in tree.shortcuts[v][w]]]
        for v in sorted(tree.shortcuts)
        for w in sorted(tree.shortcuts[v])
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def provenance_sha256(index: QHLIndex) -> str:
    """Digest of every label entry's provenance, one level deep.

    ``(mid, left (w, c), right (w, c))`` per join entry pins which of
    several equal-``(w, c)`` paths the label kept.
    """
    digest = hashlib.sha256()
    labels = index.labels
    for v in range(labels.num_vertices):
        label = labels.label(v)
        for u in labels.hubs_of(v):
            for entry in label[u]:
                prov = entry[2]
                if prov[0] == "join":
                    _tag, mid, left, right = prov
                    prov = (mid, left[:2], right[:2])
                digest.update(repr((v, u, entry[:2], prov)).encode())
    return digest.hexdigest()


def seeded_queries(index: QHLIndex) -> list[tuple[int, int, float]]:
    """``(s, t, budget)`` triples, budgets inside the pair's frontier."""
    network = index.network
    rng = random.Random(QUERY_SEED)
    queries = []
    while len(queries) < QUERIES_PER_DATASET:
        s = rng.randrange(network.num_vertices)
        t = rng.randrange(network.num_vertices)
        if s == t:
            continue
        frontier = skyline_between(network, s, t)
        low, high = frontier[0][1], frontier[-1][1]
        queries.append((s, t, low + rng.random() * (high - low)))
    return queries


def record(name: str) -> dict:
    index = build_index(name)
    answers = []
    for s, t, budget in seeded_queries(index):
        result = index.query(s, t, budget, want_path=True)
        answers.append({
            "source": s,
            "target": t,
            "budget": budget,
            "weight": result.weight,
            "cost": result.cost,
            "path": result.path,
        })
    return {
        "labels_sha256": labels_sha256(index),
        "shortcuts_sha256": shortcuts_sha256(index),
        "provenance_sha256": provenance_sha256(index),
        "queries": answers,
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", DATASET_NAMES)
def test_build_matches_golden(golden, name):
    pinned = golden[name]
    index = build_index(name)
    assert shortcuts_sha256(index) == pinned["shortcuts_sha256"]
    assert labels_sha256(index) == pinned["labels_sha256"]
    assert provenance_sha256(index) == pinned["provenance_sha256"]
    for q in pinned["queries"]:
        result = index.query(
            q["source"], q["target"], q["budget"], want_path=True
        )
        got = [result.weight, result.cost, result.path]
        assert got == [q["weight"], q["cost"], q["path"]], q


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_build.py --write")
    pinned = {name: record(name) for name in DATASET_NAMES}
    # One query per line keeps the file diffable.
    text = json.dumps(pinned, indent=1)
    for name in DATASET_NAMES:
        for q in pinned[name]["queries"]:
            text = text.replace(
                json.dumps(q, indent=1).replace("\n", "\n   "),
                json.dumps(q), 1,
            )
    GOLDEN_PATH.write_text(text + "\n")
