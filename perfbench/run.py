"""Run one benchmark workload against the ``repro`` source tree.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Workloads: ``paper-mix``, ``zipf-batch``, ``live-updates`` (``all``
runs the three in turn, each in a process of its own).  ``--trace 0``
measures the end-to-end metrics listed in ``BENCHMARK.json``;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Spans of a
traced run are written to ``.perfbench_out/`` in the checkout.

The command exits 1 if any answer differs from the exact
constrained-Dijkstra answer, and 2 without printing a result if the
checkout holds no ``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from typing import NoReturn

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("paper-mix", "zipf-batch", "live-updates")


def _fail_setup(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as exc:
        _fail_setup(f"cannot read {path}: {exc}")


def _import_repro() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        _fail_setup(f"no repro package under {SRC}")
    sys.path.insert(0, SRC)
    import repro

    origin = os.path.realpath(repro.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        _fail_setup(f"repro imported from {origin}, not from {SRC}")


def _report(name: str, args, result, spec: dict) -> dict:
    """Print the human-readable report; return the JSON result."""
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    print(f"== {name}  seed={args.seed}  seconds={args.seconds}  "
          f"trace={args.trace}  scale={args.scale}")
    for metric in listed:
        key = metric["name"]
        if key in result.metrics:
            value, note = result.metrics[key], ""
        elif args.trace:
            value, note = 0.0, "  (not exercised by this workload)"
        else:
            raise KeyError(f"{name} did not measure end-to-end {key}")
        metrics[key] = {"value": value, "unit": metric["unit"]}
        print(f"  {key:<28} {value:>16.6f} {metric['unit']}{note}")
    for key, value in result.extra.items():
        print(f"  {key:<28} {value:>16.6f}  (not gated)")
    rate = result.failed / result.attempted if result.attempted else 0.0
    print(f"  {'error_rate':<28} {rate:>16.6f} ratio  "
          f"({result.failed} failed, {result.wrong} wrong, of "
          f"{result.attempted} attempted)")
    print(f"  fingerprint {json.dumps(result.fingerprint, sort_keys=True)}")
    for note in result.notes:
        print(f"  note: {note}")
    return {
        "correct": result.wrong == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }


def _run_all(args) -> int:
    """Run every workload in a process of its own, so that each
    ``peak_rss_mb`` (the process's high-water mark) is that workload's
    alone; print their reports and results, then the merged result."""
    outputs = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--scale", args.scale],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        print(proc.stdout, end="")
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 2
        outputs[name] = json.loads(lines[-1])
    final = {
        "correct": all(o["correct"] for o in outputs.values()),
        "attempted": sum(o["attempted"] for o in outputs.values()),
        "failed": sum(o["failed"] for o in outputs.values()),
        "metrics": {
            f"{name}/{key}": value
            for name, out in outputs.items()
            for key, value in out["metrics"].items()
        },
    }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("benchmark", "small"),
                        default="benchmark",
                        help="'small' is the toy scale of selfcheck.py")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    spec = _load_spec()
    _import_repro()
    # On SIGTERM, unwind: the finally blocks below remove the private
    # directory, and subprocess.run kills the child it waits for.
    signal.signal(signal.SIGTERM, lambda *_a: sys.exit(143))
    if args.workload == "all":
        return _run_all(args)

    sys.path.insert(0, HERE)
    import workloads
    from tracer import assert_uninstalled

    # Journals and flat twins live in a private directory of the
    # checkout, removed on every exit path (SIGTERM included).
    scratch_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    private = tempfile.mkdtemp(prefix=f"run-{os.getpid()}-",
                               dir=scratch_root)
    tempfile.tempdir = private
    os.environ["TMPDIR"] = private
    runners = {
        "paper-mix": workloads.paper_mix,
        "zipf-batch": workloads.zipf_batch,
        "live-updates": workloads.live_updates,
    }
    name = args.workload
    spans_path = None
    if args.trace:
        spans_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(spans_dir, exist_ok=True)
        spans_path = os.path.join(spans_dir,
                                  f"spans-{name}-seed{args.seed}.jsonl")
    try:
        result = runners[name](workloads.Run(
            seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
            scale=args.scale, spans_path=spans_path,
        ))
        assert_uninstalled()
        final = _report(name, args, result, spec)
    finally:
        shutil.rmtree(private, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass  # another run still owns a directory there
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
