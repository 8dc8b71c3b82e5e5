"""Timing, outcome accounting and result printing shared by the workloads.

Every operation of a timed sequence goes through :meth:`Recorder.op`: the
call is timed alone, its answer is checked outside the timed window, and
the outcome lands in one of three buckets:

* passed — the answer agreed with the independent reference;
* failed, known fault — one of the program faults the README names
  (counted in ``failed``; the run stays ``correct``);
* failed, unexpected — a raise or a wrong answer nobody predicted
  (counted in ``failed`` *and* the run is reported not ``correct``).
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

#: The clock every timing metric is read from: CPU seconds of this
#: process. The host is a virtual machine whose vCPUs are taken away for
#: stretches of up to a second (hypervisor steal); wall time then counts
#: the work of other guests, CPU time counts only this program's. Every
#: workload is one closed-loop client whose operations are compute-bound
#: (the median ``fsync`` on the reference disk is 0.085 ms), so on an idle
#: host the two readings agree; the report prints the ratio of wall to CPU
#: time of the timed operations so a run can be judged.
clock = time.process_time

#: The host-speed probe: a fixed loop of ~1 ms, interpreter work and a
#: numpy pass over one frame-sized array, the two kinds of work the
#: workloads do. It is timed right before and right after every counted
#: operation, so each class of operations knows how fast the host ran
#: while it ran.
_PROBE_KEYS = 97
_PROBE_LOOP = 1500
_PROBE_IMAGE = np.linspace(0.0, 1.0, 144 * 192).reshape(144, 192)
#: Median CPU seconds of :func:`probe` on the reference host at its usual
#: speed (README); a latency is reported as it would read at that speed.
PROBE_REF_S = 0.00049

#: Calibration loop sizes: a pure-Python and a numpy part, ~0.2 s together.
_CAL_PY = 300_000
_CAL_NP = 60


class CheckFailed(Exception):
    """An answer disagreed with the independent reference."""


class KnownFault(Exception):
    """An operation hit one of the program faults the README names."""


def calibrate() -> float:
    """Seconds for a fixed CPU loop; printed only, to tell host drift apart
    from a change in the program."""
    start = clock()
    total = 0
    for i in range(_CAL_PY):
        total += i * i % 7
    matrix = np.arange(40_000, dtype=np.float64).reshape(200, 200) / 40_000.0
    for _ in range(_CAL_NP):
        matrix = np.tanh(matrix @ matrix.T / 200.0)
    elapsed = clock() - start
    if total < 0 or not np.isfinite(matrix).all():  # keep the work live
        raise RuntimeError("calibration loop misbehaved")
    return elapsed


def probe() -> float:
    """CPU seconds of the fixed probe loop: the host's speed right now."""
    start = clock()
    table: dict[int, int] = {}
    for i in range(_PROBE_LOOP):
        key = i % _PROBE_KEYS
        table[key] = table.get(key, 0) + i
    level = float(np.abs(np.diff(_PROBE_IMAGE, axis=0)).mean())
    elapsed = clock() - start
    if level <= 0.0 or len(table) != _PROBE_KEYS:  # keep the work live
        raise RuntimeError("probe loop misbehaved")
    return elapsed


def speed_of(probes: list[float]) -> float:
    """Host speed over ``probes`` relative to the reference: above 1 is
    faster."""
    return PROBE_REF_S * len(probes) / sum(probes)


def peak_rss_mb() -> float:
    """Peak resident set of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Recorder:
    """Outcome counts and per-class latency samples of one timed sequence.

    A class's latency is the mean over every operation of the class in the
    fixed sequence. The corpus grows through a run, so one class's latency
    climbs roughly tenfold from the first round to the last: a median would
    read a single round's point on that climb, while the mean weighs every
    round the sequence ran.
    """

    samples: dict[str, list[float]] = field(default_factory=dict)
    #: Per class, the mean of the probes before and after each operation.
    probes: dict[str, list[float]] = field(default_factory=dict)
    #: CPU seconds the probes took (inside the rounds, outside the ops).
    probe_total: float = 0.0
    attempted: int = 0
    failed: int = 0
    known_faults: dict[str, int] = field(default_factory=dict)
    unexpected: list[str] = field(default_factory=list)
    #: Wall and CPU seconds of the counted operations, for the report.
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: Set by the tracer so spans carry the operation they belong to.
    on_op: Callable[[str, int], Any] | None = None
    #: When False (warm-up), outcomes are neither counted nor sampled.
    counting: bool = True
    #: Maps a raised error to a :class:`KnownFault` when it is one of the
    #: workload's named faults, else returns it unchanged.
    classify: Callable[[str, BaseException], BaseException] = (
        lambda cls, error: error
    )

    def op(
        self,
        cls: str,
        fn: Callable[[], Any],
        check: Callable[[Any], None] | None = None,
        sample: str | None = None,
    ) -> Any:
        """Run one operation, time it, check it; never raises.

        ``sample`` names the latency class the duration feeds (default
        ``cls``); the duration of a failed operation is kept too — its work
        was done. Returns the answer, or None when the call raised.
        """
        answer = None
        error: BaseException | None = None
        scope = self.on_op(cls, self.attempted) if self.on_op else None
        before = probe() if self.counting else 0.0
        wall = time.perf_counter()
        start = clock()
        try:
            if scope is None:
                answer = fn()
            else:
                with scope:
                    answer = fn()
        except Exception as exc:  # noqa: BLE001 - every outcome is recorded
            error = exc
        elapsed = clock() - start
        wall = time.perf_counter() - wall
        after = probe() if self.counting else 0.0
        if error is None and check is not None:
            try:
                check(answer)
            except (CheckFailed, KnownFault) as exc:
                error = exc
        if error is not None and not isinstance(error, KnownFault):
            error = self.classify(cls, error)
        if self.counting:
            self.attempted += 1
            self.wall_s += wall
            self.cpu_s += elapsed
            self.samples.setdefault(sample or cls, []).append(elapsed)
            self.probes.setdefault(sample or cls, []).append((before + after) / 2)
            self.probe_total += before + after
            if error is not None:
                self.failed += 1
                if isinstance(error, KnownFault):
                    key = str(error)
                    self.known_faults[key] = self.known_faults.get(key, 0) + 1
                elif len(self.unexpected) < 20:
                    self.unexpected.append(
                        f"{cls}: {type(error).__name__}: {error}"
                    )
                elif len(self.unexpected) == 20:
                    self.unexpected.append("... (further failures elided)")
        return None if error is not None and answer is None else answer

    def mean_ms(self, cls: str) -> float:
        """Mean CPU milliseconds of the class, as measured."""
        values = self.samples[cls]
        return 1000.0 * sum(values) / len(values)

    def speed(self, cls: str | None = None) -> float:
        """Host speed around the class's operations (all operations when
        ``cls`` is None) relative to the reference: above 1 is faster."""
        if cls is not None:
            return speed_of(self.probes[cls])
        return speed_of([p for values in self.probes.values() for p in values])

    def norm_ms(self, cls: str) -> float:
        """Mean milliseconds of the class at the reference host speed."""
        return self.mean_ms(cls) * self.speed(cls)

    def count(self, cls: str) -> int:
        return len(self.samples.get(cls, ()))


def quiet_gc() -> None:
    """Collect garbage outside the timed windows (GC itself stays on)."""
    gc.collect()


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": float(value), "unit": unit}


def emit(
    correct: bool,
    recorder: Recorder,
    metrics: dict[str, dict[str, Any]],
    report: list[str],
) -> None:
    """Print the human-readable report, then the one-line JSON result."""
    for line in report:
        print(line)
    for name, count in sorted(recorder.known_faults.items()):
        print(f"known fault {name}: {count} operation(s)")
    for line in recorder.unexpected:
        print(f"UNEXPECTED {line}")
    sys.stdout.flush()
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(recorder.attempted),
                "failed": int(recorder.failed),
                "metrics": metrics,
            },
            sort_keys=True,
        )
    )
    sys.stdout.flush()
