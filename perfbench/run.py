"""Benchmark entry point: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload archive --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the same
sequence with span recording on and prints the per-layer metrics (spans
land in ``perfbench/out/``). ``--smoke`` shrinks every input to a size the
benchmark's own tests can afford. The last line of standard output is the
JSON result; everything above it is the human-readable report.
"""

from __future__ import annotations

import os

# Steadiness: one BLAS/OpenMP thread, set before numpy is first imported.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("broadcast", "archive", "fleet")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    return parser.parse_args(argv)


def _import_program() -> None:
    """Put the checkout's ``src`` on the path; the benchmark builds nothing
    and refuses to run without the program beside it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    _import_program()

    import harness
    from tracing import Tracer, layer_metrics, write_trace

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    if args.workload == "broadcast":
        from broadcast import BroadcastWorkload

        workload = BroadcastWorkload(args.seed, args.seconds, workdir, args.smoke)
    else:
        from catalog import CatalogWorkload

        workload = CatalogWorkload(
            args.workload, args.seed, args.seconds, workdir, args.smoke
        )

    tracer = Tracer() if args.trace else None
    cal_start = harness.calibrate()
    notes: list[str] = []
    try:
        if tracer is not None:
            tracer.install(workload.recorder)
        workload.setup()
        workload.warm_up()
        if tracer is not None:
            tracer.timed = True
        # the probes around each operation are not the program's work
        timed_s = workload.run() - workload.recorder.probe_total
        if tracer is not None:
            tracer.timed = False
            tracer.uninstall()
        recovered = True
        try:
            workload.verify_recovery()
        except harness.CheckFailed as exc:
            notes.append(f"run-level check failed: {exc}")
            recovered = False
        correct = recovered and not workload.recorder.unexpected
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.cleanup()
    cal_end = harness.calibrate()

    report = workload.report(timed_s) + notes
    rec = workload.recorder
    report.append(
        f"timed operations: {rec.cpu_s:.2f} CPU s in {rec.wall_s:.2f} wall s "
        f"(wall/CPU {rec.wall_s / rec.cpu_s if rec.cpu_s else 0.0:.3f}; above 1 "
        "is time the host ran something else)"
    )
    report.append(
        f"calibration loop: {cal_start:.4f} s at start, {cal_end:.4f} s at end "
        f"(drift {100.0 * (cal_end - cal_start) / cal_start:+.1f}%)"
    )
    end_to_end = workload.metrics(timed_s)
    last = OUT / f"last-{args.workload}-seed{args.seed}.json"
    if tracer is None:
        # every operation's latency behind each mean, for later analysis
        samples = {
            cls: [1000.0 * v for v in values]
            for cls, values in sorted(workload.recorder.samples.items())
        }
        last.write_text(
            json.dumps({"metrics": end_to_end, "samples_ms": samples}, sort_keys=True)
        )
        metrics = end_to_end
    else:
        path = write_trace(tracer, OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        report.append(f"spans written to {path.relative_to(ROOT)}")
        previous = (
            json.loads(last.read_text())["metrics"] if last.is_file() else None
        )
        metrics, lines = layer_metrics(
            tracer, workload, timed_s, end_to_end, previous
        )
        report.extend(lines)
    harness.emit(correct, workload.recorder, metrics, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
