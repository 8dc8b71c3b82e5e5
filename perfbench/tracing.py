"""The traced run: spans around each layer's public calls, per-layer metrics.

Spans are recorded from the benchmark's side only: :meth:`Tracer.install`
replaces each function in :data:`SPANS` *where its callers look it up*
(``repro.fusion.features`` imports ``extract_visual_features`` by name, so
that is the attribute patched) and :meth:`Tracer.uninstall` puts every
original back. A span is ``(id, name, start, end, parent, request)``;
``request`` is the timed operation it belongs to (-1 for set-up and
warm-up). Spans stay in memory and are written as JSON lines at the end.

A span's self time is its duration minus the durations of its children.
Hot paths whose calls are too many and too short for a span each
(``BAT.tails``, ``os.fsync``) only feed counters.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import threading
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

from harness import clock

#: Operation classes that are COQL queries (per-query counters).
QUERY_CLASSES = {"first_look", "scan", "role", "temporal", "fault_start", "warm_highlight"}

#: (module, attribute path, span name). The attribute is where callers
#: look the function up.
SPANS = (
    ("repro.fusion.pipeline", "synthesize_race", "synth.race"),
    ("repro.synth.grandprix", "synthesize_audio", "synth.audio"),
    ("repro.synth.grandprix", "generate_timeline", "synth.timeline"),
    ("repro.synth.video_synth", "RaceVideoRenderer.frame", "synth.render"),
    ("repro.fusion.pipeline", "extract_feature_set", "fusion.features"),
    ("repro.fusion.features", "extract_visual_features", "video.extract"),
    ("repro.video.semaphore", "SemaphoreTracker.update", "video.semaphore"),
    ("repro.video.replay", "DveDetector.update", "video.dve"),
    ("repro.video.features", "dust_fraction", "video.flyout"),
    ("repro.video.features", "sand_fraction", "video.flyout"),
    ("repro.video.features", "frame_difference", "video.motion"),
    ("repro.video.features", "motion_histogram", "video.motion"),
    ("repro.video.features", "passing_score", "video.motion"),
    ("repro.fusion.features", "extract_excitement_features", "audio.excitement"),
    ("repro.fusion.features", "keyword_stream", "audio.keywords"),
    ("repro.audio.keywords", "AcousticModel.decode", "audio.keywords"),
    ("repro.audio.keywords", "KeywordSpotter.spot", "audio.keywords"),
    ("repro.retrieval.system", "extract_overlays", "text.ocr"),
    ("repro.retrieval.system", "train_av_network", "fusion.train"),
    ("repro.retrieval.system", "train_audio_network", "fusion.train"),
    ("repro.retrieval.system", "hard_evidence", "fusion.evidence"),
    ("repro.retrieval.system", "FormulaOneSystem.ingest", "retrieval.ingest"),
    ("repro.cobra.extensions", "DbnExtension.infer", "dbn.infer"),
    ("repro.cobra.vdbms", "CobraVDBMS.query", "cobra.query"),
    ("repro.cobra.vdbms", "CobraVDBMS.register_document", "cobra.register_document"),
    ("repro.cobra.vdbms", "parse_coql", "cobra.parse"),
    ("repro.sharding.fleet", "parse_coql", "cobra.parse"),
    ("repro.cobra.preprocessor", "QueryPreprocessor.prepare", "cobra.preprocess"),
    ("repro.cobra.preprocessor", "QueryPreprocessor._run_method", "cobra.extract"),
    ("repro.cobra.query", "QueryExecutor.execute", "cobra.execute"),
    ("repro.cobra.metadata", "MetadataStore.events", "cobra.events"),
    ("repro.cobra.metadata", "MetadataStore.objects", "cobra.objects"),
    ("repro.cobra.metadata", "MetadataStore.register_document", "cobra.register"),
    ("repro.monet.kernel", "MonetKernel.snapshot", "monet.snapshot"),
    ("repro.monet.kernel", "MonetKernel.call", "monet.call"),
    ("repro.monet.mil", "MilInterpreter.define_proc", "monet.define"),
    ("repro.moa.rewrite", "MoaCompiler.compile", "moa.compile"),
    ("repro.moa.rewrite", "MoaCompiler.execute", "moa.execute"),
    ("repro.moa.rewrite", "MoaCompiler._precheck", "check.moa"),
    ("repro.moa.rewrite", "MoaCompiler._validate", "check.moa"),
    ("repro.check.milcheck", "MilChecker.check_proc", "check.define"),
    ("repro.check.flowcheck", "FlowChecker.check_proc", "check.define"),
    ("repro.check.racecheck", "RaceChecker.check_proc", "check.define"),
    ("repro.check.costcheck", "CostChecker.check_proc", "check.define"),
    ("repro.check.fusecheck", "FuseChecker.analyze_with_report", "check.define"),
    ("repro.check.programcheck", "ProgramChecker.on_define", "check.define"),
    ("repro.durability.store", "DurableStore.commit", "durability.commit"),
    ("repro.durability.wal", "WriteAheadLog.append", "durability.append"),
    ("repro.sharding.fleet", "ShardedKernel.query", "sharding.gather"),
    ("repro.sharding.fleet", "ShardedKernel._shard_read", "sharding.shard_read"),
    ("repro.sharding.fleet", "ShardedKernel.register_document", "sharding.place"),
    ("repro.sharding.fleet", "_PlacementJournal.append", "sharding.journal"),
    ("repro.service.service", "QueryService.run_until_idle", "service.run"),
    ("repro.service.service", "QueryService._execute", "service.execute"),
)

#: Name prefix of the benchmark's own operation spans; their self time is
#: benchmark and unwrapped-program time, not any layer's.
_ROOT_PREFIX = "op:"


class _Span:
    """Context manager form of one span (operation roots, transactions)."""

    def __init__(self, tracer: "Tracer", name: str, inner: Any = None):
        self.tracer, self.name, self.inner = tracer, name, inner

    def __enter__(self):
        self.token = self.tracer._open(self.name)
        return self.inner.__enter__() if self.inner is not None else None

    def __exit__(self, *exc):
        try:
            if self.inner is not None:
                return self.inner.__exit__(*exc)
            return False
        finally:
            self.tracer._close(self.token)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.requests: list[tuple[float, float, float, int]] = []
        self.timed = False
        self.request = -1
        self.op_class = "setup"
        self._ids = itertools.count(1)
        self._requests = itertools.count(0)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # span bookkeeping
    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # a worker thread's first span hangs under whatever the
            # installing thread has open (the service's run_until_idle)
            parent = self._main_stack[-1] if self._main_stack else 0
        sid = next(self._ids)
        stack.append(sid)
        return (sid, name, parent, clock())

    def _close(self, token: tuple) -> None:
        end = clock()
        sid, name, parent, start = token
        self._stack().pop()
        self.spans.append((sid, name, start, end, parent, self.request))

    def _count(self, name: str, amount: float) -> None:
        if self.timed:
            self.counters[name] += amount

    def op_scope(self, cls: str, _index: int) -> _Span:
        """Root span of one benchmark operation (installed on the Recorder)."""
        self.request = next(self._requests) if self.timed else -1
        self.op_class = cls
        return _Span(self, _ROOT_PREFIX + cls)

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, fn: Callable, name: str) -> Callable:
        tracer = self
        before, after = self._hooks(name)

        def traced(*args, **kwargs):
            token = tracer._open(name)
            state = before(args) if before is not None else None
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(token)
            if after is not None:
                after(result, args, state)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, recorder) -> None:
        self._main_stack = self._stack()
        for module_name, path, name in SPANS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            self._patch(owner, attr, self._wrap(owner.__dict__[attr], name))
        self._install_counters()
        recorder.on_op = self.op_scope

    def _hooks(self, name: str) -> tuple[Callable | None, Callable | None]:
        """``(before(args) -> state, after(result, args, state))`` counters
        taken at one span's boundary."""
        count = self._count
        if name == "cobra.events":
            return None, lambda result, args, _: count(
                "cobra.event_rows_examined", args[0]._event_bats["event_id"].count()
            )
        if name == "cobra.objects":
            return None, lambda result, args, _: count(
                "cobra.object_rows_examined", args[0]._object_bats["object_id"].count()
            )
        if name == "cobra.execute":
            return None, lambda result, args, _: count("cobra.rows_returned", len(result))
        if name == "text.ocr":
            return None, lambda result, args, _: count("text.overlays", len(result))
        if name in ("durability.commit", "durability.append", "sharding.journal"):
            key = "sharding.journal_bytes" if name == "sharding.journal" else "durability.wal_bytes"

            def size(args) -> int:
                if name == "durability.commit":
                    return args[0].wal_size()
                path = args[0].path
                return path.stat().st_size if path.exists() else 0

            def after(result, args, before) -> None:
                if self.op_class == "register":
                    count(key, size(args) - before)

            return size, after
        if name == "service.execute":
            def record(result, args, _) -> None:
                request = args[1]
                if self.timed and request.admitted_at is not None:
                    self.requests.append(
                        (request.submitted_at, request.admitted_at,
                         request.finished_at, self.request)
                    )
            return None, record
        return None, None

    def _install_counters(self) -> None:
        from repro.monet.bat import BAT
        from repro.monet.kernel import MonetKernel

        tracer = self
        tails = BAT.__dict__["tails"]

        def counted_tails(bat):
            out = tails(bat)
            if tracer.timed and tracer.op_class in QUERY_CLASSES:
                tracer.counters["monet.tails_elements"] += len(out)
            return out

        self._patch(BAT, "tails", counted_tails)
        transaction = MonetKernel.__dict__["transaction"]
        self._patch(
            MonetKernel, "transaction",
            lambda kernel: _Span(tracer, "monet.txn", transaction(kernel)),
        )
        fsync = os.fsync

        def counted_fsync(fd):
            if tracer.timed and tracer.op_class == "register":
                tracer.counters["durability.fsyncs"] += 1
            return fsync(fd)

        self._patches.append((os, "fsync", fsync))
        os.fsync = counted_fsync

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def write_trace(tracer: Tracer, path: Path) -> Path:
    base = min((s[2] for s in tracer.spans), default=0.0)
    with path.open("w") as fh:
        for sid, name, start, end, parent, request in tracer.spans:
            fh.write(
                json.dumps(
                    {
                        "id": sid,
                        "name": name,
                        "start_us": round((start - base) * 1e6, 1),
                        "end_us": round((end - base) * 1e6, 1),
                        "parent": parent,
                        "request": request,
                    }
                )
                + "\n"
            )
    return path


class SpanStats:
    """Per-name count, total and self seconds of the timed (or set-up) spans."""

    def __init__(self, spans, timed: bool):
        child_time: dict[int, float] = defaultdict(float)
        for sid, name, start, end, parent, request in spans:
            child_time[parent] += end - start
        self.count: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        for sid, name, start, end, parent, request in spans:
            if (request >= 0) != timed:
                continue
            self.count[name] += 1
            self.total[name] += end - start
            self.self_time[name] += max(end - start - child_time[sid], 0.0)

    def mean_ms(self, name: str, self_only: bool = False) -> float:
        n = self.count[name]
        source = self.self_time if self_only else self.total
        return 1000.0 * source[name] / n if n else 0.0


def _per(value: float, base: float) -> float:
    return value / base if base else 0.0


#: Per-layer metric name -> unit, in report order (BENCHMARK.json order).
LAYER_UNITS = {
    "synth.audio_s": "s", "synth.render_s": "s", "synth.frames_rendered": "count",
    "video.extract_s": "s", "video.semaphore_ms": "ms", "video.dve_ms": "ms",
    "video.flyout_ms": "ms", "video.motion_ms": "ms",
    "audio.excitement_s": "s", "audio.keywords_s": "s",
    "text.ocr_s": "s", "text.overlays": "count",
    "fusion.train_s": "s", "fusion.evidence_ms": "ms",
    "dbn.infer_ms": "ms", "dbn.infer_calls": "count", "cobra.extractions": "count",
    "cobra.preprocess_ms": "ms", "cobra.parse_us": "us", "cobra.execute_ms": "ms",
    "cobra.events_calls": "count", "cobra.event_rows_per_result": "ratio",
    "cobra.objects_calls": "count", "cobra.object_rows_examined": "count",
    "cobra.register_ms": "ms",
    "monet.tails_elements": "count", "monet.txn_ms": "ms", "monet.snapshot_ms": "ms",
    "monet.call_ms": "ms", "monet.procs": "count",
    "moa.compile_ms": "ms", "moa.execute_ms": "ms", "check.compile_ms": "ms",
    "durability.commit_ms": "ms", "durability.wal_bytes_per_doc": "B",
    "durability.fsyncs_per_doc": "count",
    "sharding.gather_ms": "ms", "sharding.shards_per_query": "count",
    "sharding.place_ms": "ms", "sharding.journal_bytes_per_doc": "B",
    "service.wait_ms": "ms", "service.overhead_ms": "ms",
    "trace.layer_share": "ratio",
}


def layer_metrics(tracer, workload, timed_s, end_to_end, untraced):
    """Per-layer metrics of a traced run, plus the report lines."""
    timed = SpanStats(tracer.spans, timed=True)
    setup = SpanStats(tracer.spans, timed=False)
    c = tracer.counters
    rec = workload.recorder
    registered = rec.count("register")
    queries = timed.count["cobra.query"] + timed.count["sharding.gather"]
    frames = timed.count["video.semaphore"]
    compiles = timed.count["moa.compile"]
    # analyzers run inside Moa compiles and the PROC definitions they make
    check_s = timed.total["check.moa"] + timed.total["check.define"]
    waits = [admitted - submitted for submitted, admitted, _, _ in tracer.requests]
    request_time = sum(finished - submitted for submitted, _, finished, _ in tracer.requests)
    # every timed fleet call runs inside a service request
    fleet_time = timed.total["sharding.gather"] + timed.total["sharding.place"]
    layer_self = sum(
        v for name, v in timed.self_time.items() if not name.startswith(_ROOT_PREFIX)
    )
    values = {
        "synth.audio_s": _per(timed.self_time["synth.audio"], registered),
        "synth.render_s": _per(timed.self_time["synth.render"], registered),
        "synth.frames_rendered": _per(timed.count["synth.render"], registered),
        "video.extract_s": _per(timed.self_time["video.extract"], registered),
        "video.semaphore_ms": 1000 * _per(timed.total["video.semaphore"], frames),
        "video.dve_ms": 1000 * _per(timed.total["video.dve"], frames),
        "video.flyout_ms": 1000 * _per(timed.total["video.flyout"], frames),
        "video.motion_ms": 1000 * _per(timed.total["video.motion"], frames),
        "audio.excitement_s": _per(timed.total["audio.excitement"], registered),
        "audio.keywords_s": _per(timed.total["audio.keywords"], registered),
        "text.ocr_s": _per(timed.self_time["text.ocr"], registered),
        "text.overlays": _per(c["text.overlays"], registered),
        "fusion.train_s": setup.total["fusion.train"],
        "fusion.evidence_ms": timed.mean_ms("fusion.evidence"),
        "dbn.infer_ms": timed.mean_ms("dbn.infer"),
        "dbn.infer_calls": _per(timed.count["dbn.infer"], registered),
        "cobra.extractions": _per(timed.count["cobra.extract"], registered),
        "cobra.preprocess_ms": timed.mean_ms("cobra.preprocess"),
        "cobra.parse_us": 1000 * timed.mean_ms("cobra.parse"),
        "cobra.execute_ms": timed.mean_ms("cobra.execute"),
        "cobra.events_calls": _per(timed.count["cobra.events"], queries),
        "cobra.event_rows_per_result": _per(
            c["cobra.event_rows_examined"], c["cobra.rows_returned"]
        ),
        "cobra.objects_calls": _per(timed.count["cobra.objects"], queries),
        "cobra.object_rows_examined": _per(c["cobra.object_rows_examined"], queries),
        "cobra.register_ms": timed.mean_ms("cobra.register"),
        "monet.tails_elements": _per(c["monet.tails_elements"], queries),
        "monet.txn_ms": timed.mean_ms("monet.txn", self_only=True),
        "monet.snapshot_ms": timed.mean_ms("monet.snapshot"),
        "monet.call_ms": timed.mean_ms("monet.call"),
        "monet.procs": float(workload.procedure_count()),
        "moa.compile_ms": timed.mean_ms("moa.compile", self_only=True),
        "moa.execute_ms": timed.mean_ms("moa.execute"),
        "check.compile_ms": 1000 * _per(check_s, compiles),
        "durability.commit_ms": timed.mean_ms("durability.commit"),
        "durability.wal_bytes_per_doc": _per(c["durability.wal_bytes"], registered),
        "durability.fsyncs_per_doc": _per(c["durability.fsyncs"], registered),
        "sharding.gather_ms": timed.mean_ms("sharding.gather", self_only=True),
        "sharding.shards_per_query": _per(
            timed.count["sharding.shard_read"], timed.count["sharding.gather"]
        ),
        "sharding.place_ms": timed.mean_ms("sharding.place"),
        "sharding.journal_bytes_per_doc": _per(c["sharding.journal_bytes"], registered),
        "service.wait_ms": 1000 * _per(sum(waits), len(waits)),
        "service.overhead_ms": 1000 * _per(request_time - fleet_time, len(waits)),
        "trace.layer_share": _per(layer_self, timed_s),
    }
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in LAYER_UNITS.items()}
    lines = [
        f"traced run: {len(tracer.spans)} span(s); layer self time covers "
        f"{100 * values['trace.layer_share']:.1f}% of {timed_s:.2f} s timed",
        "exact counts: "
        + ", ".join(
            f"{k}={values[k]:.6g}"
            for k in ("synth.frames_rendered", "durability.wal_bytes_per_doc",
                      "monet.procs", "cobra.events_calls")
        ),
        f"event rows examined {c['cobra.event_rows_examined']:.0f} for "
        f"{c['cobra.rows_returned']:.0f} returned",
    ]
    by_layer: dict[str, float] = defaultdict(float)
    for name, value in timed.self_time.items():
        by_layer[name.split(".")[0]] += value
    lines.append(
        "self time by layer: "
        + ", ".join(f"{k} {v:.3f} s" for k, v in sorted(by_layer.items(), key=lambda kv: -kv[1]))
    )
    if untraced is None:
        lines.append("tracing overhead: no untraced run of this seed to compare")
    else:
        for name, entry in sorted(end_to_end.items()):
            base = untraced.get(name, {}).get("value")
            if base:
                lines.append(
                    f"tracing overhead {name}: {entry['value']:.4g} traced vs "
                    f"{base:.4g} untraced ({100 * (entry['value'] / base - 1):+.1f}%)"
                )
    return metrics, lines
