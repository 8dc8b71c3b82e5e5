"""The ``archive`` and ``fleet`` workloads: metadata registration and COQL.

Both run the same seeded round structure against a durable store that
grows while it is queried:

* one durable registration of a new race document;
* that race's first-look round (``highlight``, ``excited_speech``,
  ``fly_out`` ``FROM`` the race);
* event scans, role/position queries (several asked in English through
  :func:`repro.retrieval.parser.english_to_coql`) and video-scoped Allen
  queries with a role filter;
* the five :func:`repro.moa.rewrite.builtin_moa_plans` over one race's
  feature BATs.

``archive`` runs them on one ``CobraVDBMS(store=...)`` with default checks.
``fleet`` sends the COQL through ``QueryService(fleet=...)`` to a default
three-shard durable ``ShardedKernel``; its shards load no bulk operators,
so its Moa plans run on the service's front VDBMS.
"""

from __future__ import annotations

import shutil
import statistics
from pathlib import Path
from typing import Any

import numpy as np

from corpus import DOC_KINDS, MOA_TRACKS, DocRows, archive_document, derive_seed
from harness import (
    CheckFailed,
    KnownFault,
    Recorder,
    clock,
    metric,
    peak_rss_mb,
    probe,
    quiet_gc,
    speed_of,
)
from reference import Query, check_answer, check_moa, check_recovered

from repro.cobra.catalog import DomainKnowledge
from repro.cobra.vdbms import CobraVDBMS
from repro.errors import InsufficientCoverageError
from repro.moa.rewrite import builtin_moa_plans
from repro.monet.bat import BAT
from repro.retrieval.parser import english_to_coql
from repro.synth.race import TIMELINE_DRIVERS

DOMAIN = "formula1"

#: Race length of every archive document (seconds of broadcast).
DOC_SECONDS = 300.0
#: Documents registered before the timed sequence starts.
INITIAL_DOCS = {"archive": 10, "fleet": 10}
#: Whole set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 15
#: CPU seconds one round takes on average on the reference host (README),
#: used to turn ``--seconds`` into a fixed round count.
NOMINAL_ROUND_S = {"archive": 1.3, "fleet": 0.9}
#: Smoke mode: tiny corpus, two rounds.
SMOKE = {"docs": 3, "rounds": 2, "seconds": 240.0}

#: Query-mix passes per registration: a fleet gather costs a third of an
#: archive query, so the fleet asks twice as much per document.
MIX_PASSES = {"archive": 1, "fleet": 2}
FIRST_LOOK = ("highlight", "excited_speech", "fly_out")
#: One query of each shape per round, so every round asks the same mix.
TEMPORAL_TEMPLATES = (
    ("highlight", "intersects", "driver_mention"),
    ("highlight", "contains", "passing"),
    ("lap", "after", "pit_stop"),
    ("classification", "before", "winner"),
)


def _title(driver: str) -> str:
    return driver.capitalize()


def pick_video(videos: list[str], round_index: int, slot: int) -> str:
    """A ``FROM`` target chosen by position, never by the seed: fleet
    placement depends only on the names, so which gathers hit the coverage
    fault is the same for every seed."""
    return videos[(round_index * 5 + slot * 3) % len(videos)]


def scan_queries(
    rng: np.random.Generator, videos: list[str], round_index: int
) -> list[Query]:
    confidence = float(rng.choice([0.6, 0.7, 0.8, 0.9]))
    return [
        Query("highlight", conds=(("confidence", confidence),)),
        Query("lap", conds=(("lap", int(rng.integers(1, 6))),)),
        Query(
            str(rng.choice(["pit_stop", "classification", "passing", "excited_speech"])),
            video=pick_video(videos, round_index, 0),
        ),
        Query("fly_out", english="Retrieve all fly outs"),
    ]


def role_queries(rng: np.random.Generator) -> list[Query]:
    a, b = (str(d) for d in rng.choice(TIMELINE_DRIVERS, size=2, replace=False))
    return [
        Query(
            "pit_stop",
            conds=(("role", "driver", a),),
            english=f"Retrieve the video sequences showing {_title(a)} in the pit stop",
        ),
        Query(
            "fly_out",
            conds=(("role", "driver", b),),
            english=f"Retrieve all fly outs of {_title(b)}",
        ),
        Query(
            "classification",
            conds=(("position", a, 1),),
            english=f"Retrieve the video sequences with {_title(a)} leading the race",
        ),
        Query(
            "classification",
            conds=(("position", b, 1), ("position", a, 2)),
            english=(
                f"Retrieve the video sequences where {_title(b)} is first, "
                f"and {_title(a)} is second"
            ),
        ),
    ]


def temporal_queries(
    rng: np.random.Generator, videos: list[str], round_index: int
) -> list[Query]:
    out = []
    for j, (kind, relation, other) in enumerate(TEMPORAL_TEMPLATES):
        role = "p1" if other == "classification" else "driver"
        out.append(
            Query(
                kind,
                video=pick_video(videos, round_index, j + 1),
                conds=(
                    ("temporal", relation, other, role, str(rng.choice(TIMELINE_DRIVERS))),
                ),
            )
        )
    return out


def feature_bats(rows: DocRows) -> dict[str, BAT]:
    bats = {}
    for name in MOA_TRACKS:
        bat = BAT("void", "dbl")
        bat.insert_bulk(None, rows.tracks[name].tolist())
        bats[name] = bat
    return bats


class CatalogWorkload:
    """One run of ``archive`` or ``fleet`` (see the module docstring)."""

    def __init__(self, name: str, seed: int, seconds: float, workdir: Path, smoke: bool):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.fleet_mode = name == "fleet"
        if smoke:
            self.initial, self.rounds, self.doc_seconds = (
                SMOKE["docs"], SMOKE["rounds"], SMOKE["seconds"],
            )
        else:
            self.initial = INITIAL_DOCS[name]
            self.rounds = max(2, round(seconds / NOMINAL_ROUND_S[name]))
            self.doc_seconds = DOC_SECONDS
        # +1 for the warm-up registration
        total = self.initial + 1 + self.rounds
        self.inputs = [archive_document(seed, i, self.doc_seconds) for i in range(total)]
        ensure_kinds([rows for _, rows in self.inputs])
        self.docs: list[DocRows] = []  # acknowledged registrations
        self.plans = builtin_moa_plans()
        self.recorder = Recorder(classify=self._classify)
        self.setup_times: list[float] = []
        self.setup_probes: list[float] = []
        self.recovered_rows = 0
        self.fleet = None
        self.service = None
        self.db = None

    # ------------------------------------------------------------------
    # set-up
    # ------------------------------------------------------------------
    def _build(self, directory: Path) -> None:
        if self.fleet_mode:
            from repro.service import QueryService
            from repro.sharding import ShardedKernel

            self.fleet = ShardedKernel(directory, shards=3)
            self.db = CobraVDBMS()
            self.service = QueryService(self.db, fleet=self.fleet)
        else:
            self.db = CobraVDBMS(store=directory)
        self.db.register_domain(DomainKnowledge(DOMAIN))
        for document, _ in self.inputs[: self.initial]:
            self._register(document)

    def _close(self) -> None:
        if self.fleet is not None:
            self.fleet.close()
        if self.db is not None:
            self.db.close()

    def setup(self) -> None:
        for attempt in range(SETUP_REPEATS):
            if attempt:
                self._close()
            directory = self.workdir / f"store{attempt}"
            quiet_gc()
            self.setup_probes.append(probe())
            start = clock()
            self._build(directory)
            self.setup_times.append(clock() - start)
            self.setup_probes.append(probe())
        self.store_dir = directory
        self.docs = [rows for _, rows in self.inputs[: self.initial]]

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def _register(self, document) -> Any:
        if self.fleet_mode:
            ticket = self.service.submit_register(document, DOMAIN)
            self.service.run_until_idle()
            return ticket.result()
        return self.db.register_document(document, DOMAIN)

    def _query(self, text: str):
        if self.fleet_mode:
            ticket = self.service.submit_query(text)
            self.service.run_until_idle()
            return ticket.result()
        return self.db.query(text)

    def _ask(self, query: Query):
        text = english_to_coql(query.english) if query.english else query.text()
        return self._query(text)

    def _classify(self, cls: str, error: BaseException) -> BaseException:
        if isinstance(error, InsufficientCoverageError):
            # the coverage fault: a shard-local gather measured against
            # every placed document (README, counted fault 2)
            return KnownFault("fleet-from-video-coverage")
        return error

    def register_op(self, index: int) -> None:
        document, rows = self.inputs[index]

        def check(_: Any) -> None:
            self.docs.append(rows)

        self.recorder.op("register", lambda: self._register(document), check)

    def first_look_op(self, rows: DocRows) -> None:
        queries = [Query(kind, video=rows.video_id) for kind in FIRST_LOOK]

        def run():
            # a fleet gather that fails its coverage floor still did its
            # work; ask all three either way so failed rounds time the same
            results, error = [], None
            for query in queries:
                try:
                    results.append(self._ask(query))
                except InsufficientCoverageError as exc:
                    error = error or exc
            if error is not None:
                raise error
            return results

        def check(results) -> None:
            for query, result in zip(queries, results):
                check_answer(query, result.records, self.docs)

        self.recorder.op("first_look", run, check)

    def query_op(self, cls: str, query: Query) -> None:
        self.recorder.op(
            cls,
            lambda: self._ask(query),
            lambda result: check_answer(query, result.records, self.docs),
        )

    def moa_ops(self, rows: DocRows, names: list[str]) -> None:
        bats = feature_bats(rows)
        compiler = self.db.compiler
        for name in names:
            expr = self.plans[name]
            self.recorder.op(
                "moa",
                lambda expr=expr: compiler.run(expr, **bats),
                lambda result, name=name: check_moa(name, result, rows.tracks),
            )

    # ------------------------------------------------------------------
    # the timed sequence
    # ------------------------------------------------------------------
    def _round(self, r: int, register_index: int, full: bool) -> None:
        rng = np.random.default_rng(derive_seed(self.seed, 3, r + 1))
        self.register_op(register_index)
        newest = self.docs[-1]
        self.first_look_op(newest)
        videos = [d.video_id for d in self.docs]
        for p in range(MIX_PASSES[self.name] if full else 1):
            slot = max(r, 0) * MIX_PASSES[self.name] + p
            scans = scan_queries(rng, videos, slot)
            roles = role_queries(rng)
            temporals = temporal_queries(rng, videos, slot)
            if not full:
                scans, roles, temporals = scans[:1], roles[:1], temporals[:1]
            # interleave the classes so no class always runs on a warmer cache
            for i in range(max(len(scans), len(roles), len(temporals))):
                if i < len(scans):
                    self.query_op("scan", scans[i])
                if i < len(roles):
                    self.query_op("role", roles[i])
                if i < len(temporals):
                    self.query_op("temporal", temporals[i])
        target = self.docs[int(rng.integers(len(self.docs)))]
        names = sorted(self.plans)
        self.moa_ops(target, names if full else names[:1])

    def warm_up(self) -> None:
        """One operation of each class, outside the metrics."""
        self.recorder.counting = False
        self._round(-1, self.initial, full=False)
        self.recorder.counting = True

    def run(self) -> float:
        """The timed sequence; returns its CPU seconds (``harness.clock``)."""
        elapsed = 0.0
        for r in range(self.rounds):
            quiet_gc()
            start = clock()
            self._round(r, self.initial + 1 + r, full=True)
            elapsed += clock() - start
        return elapsed

    def verify_recovery(self) -> None:
        """Reopen the durable store(s); every acknowledged registration must
        come back row for row."""
        self._close()
        if self.fleet_mode:
            from repro.sharding import ShardedKernel

            fleet = ShardedKernel(self.store_dir, shards=3)
            try:
                placements = fleet.placements()
                for rows in self.docs:
                    shard = placements.get(rows.video_id)
                    if shard is None:
                        raise CheckFailed(f"recovery: {rows.video_id} not placed")
                    view = fleet.shard(shard).view()
                    self.recovered_rows += check_recovered(view, [rows])
            finally:
                fleet.close()
        else:
            db = CobraVDBMS(store=self.store_dir, check="off")
            try:
                self.recovered_rows = check_recovered(db.metadata, self.docs)
            finally:
                db.close()

    # ------------------------------------------------------------------
    def metrics(self, timed_s: float) -> dict[str, dict[str, Any]]:
        rec = self.recorder
        registered = rec.count("register")
        return {
            "setup_s": metric(
                statistics.median(self.setup_times) * speed_of(self.setup_probes),
                "s",
            ),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
            "register_media_x": metric(
                registered * self.doc_seconds / timed_s / rec.speed(), "x"
            ),
            "first_answer_ms": metric(rec.norm_ms("first_look"), "ms"),
            "scan_query_ms": metric(rec.norm_ms("scan"), "ms"),
            "role_query_ms": metric(rec.norm_ms("role"), "ms"),
            "temporal_query_ms": metric(rec.norm_ms("temporal"), "ms"),
            "moa_query_ms": metric(rec.norm_ms("moa"), "ms"),
            "register_doc_ms": metric(rec.norm_ms("register"), "ms"),
        }

    def procedure_count(self) -> int:
        """MIL PROCs defined on the kernel the Moa plans compile into."""
        return len(self.db.kernel.procedures())

    def report(self, timed_s: float) -> list[str]:
        rec = self.recorder
        lines = [
            f"workload {self.name}: {self.rounds} round(s), corpus "
            f"{self.initial} -> {len(self.docs)} document(s) of "
            f"{self.doc_seconds:.0f} s, timed {timed_s:.2f} CPU s",
            "setup_s samples: " + ", ".join(f"{t:.3f}" for t in self.setup_times)
            + f" (host speed {speed_of(self.setup_probes):.3f})",
            f"recovery: {len(self.docs)} document(s), {self.recovered_rows} "
            f"event row(s) recovered row for row",
        ]
        for cls in sorted(rec.samples):
            lines.append(
                f"  {cls}: n={rec.count(cls)} mean={rec.mean_ms(cls):.3f} ms as "
                f"measured, host speed {rec.speed(cls):.3f}"
            )
        return lines

    def cleanup(self) -> None:
        self._close()
        shutil.rmtree(self.workdir, ignore_errors=True)


def ensure_kinds(docs: list[DocRows]) -> None:
    """Guard the input invariant the query mix relies on."""
    for doc in docs:
        present = {e.kind for e in doc.events}
        missing = [k for k in DOC_KINDS if k not in present]
        if missing:
            raise RuntimeError(f"generated document {doc.video_id} lacks {missing}")
