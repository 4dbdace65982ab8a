"""Self-check of the benchmark at toy scale (NY/small).

Usage, from the root of a checkout::

    python3 perfbench/selfcheck.py

Runs every workload untraced and traced at ``--scale small`` (a few
hundred queries, one update batch) and asserts that

* the last output line has exactly the contract keys, ``correct`` is
  true and ``error_rate`` (failed / attempted) is 0;
* every metric listed in ``BENCHMARK.json`` is present with its unit,
  every end-to-end value is positive and every per-layer metric is
  non-zero on at least one workload (``service.fallbacks`` excepted:
  it counts tier failures);
* the op-count fingerprint of the untraced and the traced run of the
  same seed are identical;
* the exact-answer checker catches a deliberately corrupted answer;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/``,
  the command exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-mix", "zipf-batch", "live-updates")
KEYS = {"correct", "attempted", "failed", "metrics"}
ZERO_WHEN_HEALTHY = {"service.fallbacks"}


def _run(cwd: str, workload: str, trace: int) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--scale", "small"],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )
    return proc.returncode, proc.stdout.splitlines()


def _fingerprint(lines: list[str]) -> str:
    return next(ln for ln in lines if ln.strip().startswith("fingerprint"))


def check_runs(spec: dict) -> None:
    nonzero: set[str] = set()
    for workload in WORKLOADS:
        prints = []
        for trace, listed in ((0, spec["end_to_end"]),
                              (1, spec["per_layer"])):
            code, lines = _run(ROOT, workload, trace)
            assert code == 0, f"{workload} trace={trace} exited {code}"
            out = json.loads(lines[-1])
            assert set(out) == KEYS, f"{workload}: keys {sorted(out)}"
            assert out["correct"] is True, f"{workload}: wrong answers"
            assert out["attempted"] >= 1 and out["failed"] == 0, (
                f"{workload}: error_rate {out['failed']}/{out['attempted']}"
            )
            metrics = out["metrics"]
            assert list(metrics) == [m["name"] for m in listed], (
                f"{workload} trace={trace}: metric names differ from "
                "BENCHMARK.json"
            )
            for m in listed:
                got = metrics[m["name"]]
                assert got["unit"] == m["unit"], f"unit of {m['name']}"
                if trace == 0:
                    assert got["value"] > 0, f"{workload}: {m['name']} <= 0"
                elif got["value"] != 0:
                    nonzero.add(m["name"])
            prints.append(_fingerprint(lines))
        assert prints[0] == prints[1], (
            f"{workload}: fingerprints differ between runs:\n" +
            "\n".join(prints)
        )
    # A healthy tree never falls back to a slower tier.
    never = [
        m["name"] for m in spec["per_layer"]
        if m["name"] not in nonzero and m["name"] not in ZERO_WHEN_HEALTHY
    ]
    assert not never, f"per-layer metrics zero on every workload: {never}"


def check_oracle() -> None:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import oracle
    from repro.datasets import load_dataset

    network = load_dataset("NY", scale="small").network
    pair = (0, network.num_vertices - 1)
    fronts = oracle.frontiers(network, [pair])
    weight, cost = fronts[pair][-1]
    budget = cost + 1.0
    exact = (*pair, budget, weight, cost)
    assert not oracle.wrong_answers(fronts, [exact])
    for corrupted in (
        (*pair, budget, weight + 1.0, cost),
        (*pair, budget, weight, cost + 0.5),
        (*pair, budget, None, None),
        (*pair, fronts[pair][0][1] - 1.0, weight, cost),
    ):
        assert oracle.wrong_answers(fronts, [corrupted]), (
            f"corrupted answer {corrupted} passed the checker"
        )


def check_bare_directory() -> None:
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(
            HERE, os.path.join(bare, "perfbench"),
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        code, lines = _run(bare, "paper-mix", 0)
        assert code != 0, "benchmark succeeded without a source tree"
        assert not any(ln.startswith("{") for ln in lines), (
            "benchmark printed a result without a source tree"
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    check_oracle()
    check_bare_directory()
    check_runs(spec)
    print("perfbench selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
