"""Seeded inputs: broadcast race specs and metadata-only race documents.

The archive and fleet corpora are built from per-race timelines without
rendering a pixel: the driver objects, the overlay schedule parsed by
:func:`repro.text.overlay.parse_overlay` (what OCR would have read), the
scheduled race events standing in for DBN output, and three 10 Hz feature
tracks for the Moa plans. Each document is also kept as plain Python rows
(:class:`DocRows`) — the reference evaluator reads those, never the store.

Document names do not depend on the seed (``gp000``, ``gp001``, ...), so
fleet placement — and with it the coverage fault the README names — is
the same for every seed; the seed drives everything inside a document.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cobra.model import FeatureTrack, RawVideo, VideoDocument, VideoObject
from repro.synth.annotations import Interval
from repro.synth.race import RaceSpec, generate_timeline
from repro.text.overlay import parse_overlay
from repro.text.recognition import DRIVER_NAMES

#: The annotated race the broadcast system trains on (fixed, seed-free).
ANNOTATED_SPEC = RaceSpec(
    name="annotated",
    duration=150.0,
    n_passings=2,
    n_fly_outs=1,
    n_pit_stops=1,
    passing_visibility=0.9,
    excitement_reaction=0.8,
    seed=77,
)

#: Kinds every archive document holds, so no query hits an empty kind.
DOC_KINDS = (
    "highlight",
    "start",
    "passing",
    "fly_out",
    "excited_speech",
    "classification",
    "lap",
    "pit_stop",
    "winner",
    "final_lap",
    "driver_mention",
)

#: Feature tracks the five built-in Moa plans read.
MOA_TRACKS = ("excitement", "speed", "brake")


def derive_seed(seed: int, *parts: int) -> int:
    """A 31-bit seed from the workload seed and a position."""
    mixed = np.random.SeedSequence([seed & 0xFFFFFFFF, *parts]).generate_state(1)
    return int(mixed[0] & 0x7FFFFFFF)


def broadcast_spec(seed: int, index: int, duration: float = 150.0) -> RaceSpec:
    """The ``index``-th race a broadcast run registers from raw media."""
    return RaceSpec(
        name=f"race{index:02d}",
        duration=duration,
        n_passings=2,
        n_fly_outs=1,
        n_pit_stops=1,
        passing_visibility=0.9,
        excitement_reaction=0.8,
        seed=derive_seed(seed, 1, index),
    )


@dataclass
class EventRow:
    event_id: str
    kind: str
    start: float
    end: float
    confidence: float
    source: str
    roles: dict[str, str]


@dataclass
class DocRows:
    """One document as the benchmark generated it (reference input)."""

    video_id: str
    duration: float
    events: list[EventRow] = field(default_factory=list)
    #: object id -> label
    objects: dict[str, str] = field(default_factory=dict)
    tracks: dict[str, np.ndarray] = field(default_factory=dict)

    @staticmethod
    def of(document: VideoDocument) -> "DocRows":
        """Rows of a document as it stands now (insertion order)."""
        rows = DocRows(document.raw.video_id, document.raw.duration)
        for event in document.events.values():
            rows.events.append(
                EventRow(
                    event.event_id,
                    event.kind,
                    float(event.interval.start),
                    float(event.interval.end),
                    float(event.confidence),
                    event.source,
                    dict(event.roles),
                )
            )
        rows.objects = {
            obj.object_id: obj.label for obj in document.objects.values()
        }
        rows.tracks = {
            name: np.asarray(track.values) for name, track in document.features.items()
        }
        return rows


def archive_document(
    seed: int, index: int, duration: float
) -> tuple[VideoDocument, DocRows]:
    """A metadata-only race document: no synthesis of media, no extraction."""
    spec = RaceSpec(
        name=f"gp{index:03d}",
        duration=duration,
        n_passings=4,
        n_fly_outs=2,
        n_pit_stops=3,
        passing_visibility=0.6,
        excitement_reaction=0.7,
        spurious_excitement=2.0,
        seed=derive_seed(seed, 2, index),
    )
    timeline = generate_timeline(spec)
    truth = timeline.ground_truth()
    rng = np.random.default_rng(spec.seed)
    name = spec.name
    document = VideoDocument(
        raw=RawVideo(
            video_id=name,
            locator=f"synthetic://{name}?seed={spec.seed}",
            duration=duration,
            fps=10.0,
            width=192,
            height=144,
            audio_sample_rate=16000,
        )
    )
    object_of: dict[str, str] = {}
    for i, driver in enumerate(DRIVER_NAMES):
        object_id = f"{name}/driver{i}"
        object_of[driver] = object_id
        document.add_object(VideoObject(object_id, "driver", driver))

    # overlay text, parsed the way the OCR front end parses it
    for interval, words in timeline.overlays:
        event = parse_overlay(words)
        roles: dict[str, str] = {}
        if event.kind == "classification":
            for driver, position in event.positions.items():
                roles[f"p{position}"] = object_of[driver]
            if event.lap is not None:
                roles["lap"] = str(event.lap)
        elif event.kind in ("pit_stop", "winner", "driver_info") and event.drivers:
            roles["driver"] = object_of[event.drivers[0]]
        elif event.kind == "lap" and event.lap is not None:
            roles["lap"] = str(event.lap)
        span = Interval(interval.start, interval.end)
        document.new_event(event.kind, span, 1.0, roles, source="text")
        for driver in event.drivers:
            document.new_event(
                "driver_mention", span, 1.0, {"driver": object_of[driver]}, "text"
            )

    # scheduled race events standing in for the DBN's output
    def confidence() -> float:
        return round(float(rng.uniform(0.45, 0.99)), 3)

    for interval in truth.highlights:
        document.new_event("highlight", interval, confidence(), source="dbn")
    for race_event in timeline.events:
        if race_event.kind == "pit_stop":
            continue
        roles = (
            {"driver": object_of[race_event.drivers[0]]} if race_event.drivers else {}
        )
        document.new_event(
            race_event.kind, race_event.interval, confidence(), roles, "dbn"
        )
    for interval in truth.excited_speech:
        document.new_event("excited_speech", interval, confidence(), source="dbn")

    steps = int(duration * 10)
    for track in MOA_TRACKS:
        values = np.clip(rng.beta(2.0, 2.5, size=steps), 0.0, 1.0).round(4)
        document.add_feature(FeatureTrack(track, values))
    return document, DocRows.of(document)
