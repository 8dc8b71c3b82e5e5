"""The benchmark's own tests: tiny smoke runs and checks that bite.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from corpus import DocRows, archive_document
from harness import CheckFailed, KnownFault, Recorder
from reference import Query, allen, check_answer, check_moa, duplicated, evaluate

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _run(
    workload: str, cwd: Path = ROOT, trace: int = 0, seed: int = 5
) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", ["archive", "fleet", "broadcast"])
def test_smoke_run_prints_every_metric(workload):
    names = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(workload)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in names["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # only the faults the README names fail
    for line in proc.stdout.splitlines():
        assert not line.startswith("UNEXPECTED"), line


def test_failed_share_does_not_depend_on_the_seed():
    counts = set()
    for seed in (5, 6):
        proc = _run("fleet", seed=seed)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        counts.add((result["attempted"], result["failed"]))
    assert len(counts) == 1
    assert counts.pop()[1] > 0  # the coverage fault shows on the small corpus


def test_traced_smoke_run_prints_every_layer_metric():
    names = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run("archive", trace=1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result["metrics"]) == {m["name"] for m in names["per_layer"]}
    assert result["metrics"]["durability.fsyncs_per_doc"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("archive", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# ---------------------------------------------------------------------------
# the checks reject wrong answers
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus():
    return [archive_document(3, i, 240.0) for i in range(3)]


def _store(corpus):
    from repro.cobra.catalog import DomainKnowledge
    from repro.cobra.vdbms import CobraVDBMS

    db = CobraVDBMS(check="off")
    db.register_domain(DomainKnowledge("formula1"))
    for document, _ in corpus:
        db.register_document(document, "formula1")
    return db, [rows for _, rows in corpus]


QUERIES = [
    Query("highlight", conds=(("confidence", 0.7),)),
    Query("classification", conds=(("position", "SCHUMACHER", 1),)),
    Query("pit_stop", conds=(("role", "driver", "HAKKINEN"),)),
    Query("lap", conds=(("lap", 2),)),
    Query("highlight", video="gp001",
          conds=(("temporal", "intersects", "driver_mention", "driver", "BARRICHELLO"),)),
    Query("lap", video="gp002", conds=(("temporal", "after", "pit_stop", "driver", "RALF"),)),
]


def test_reference_agrees_with_the_program(corpus):
    db, docs = _store(corpus)
    for query in QUERIES:
        check_answer(query, db.query(query.text()).records, docs)


def test_corrupted_coql_answer_is_rejected(corpus):
    db, docs = _store(corpus)
    query = Query("highlight", conds=(("confidence", 0.5),))
    records = db.query(query.text()).records
    assert records
    with pytest.raises(CheckFailed):
        check_answer(query, records[1:], docs)  # a row lost
    bent = [dict(r) for r in records]
    bent[0]["end"] += 1.0
    with pytest.raises(CheckFailed):
        check_answer(query, bent, docs)  # a row changed


def test_duplicated_row_is_rejected(corpus):
    db, docs = _store(corpus)
    query = Query("fly_out", video="gp000")
    records = db.query(query.text()).records
    assert duplicated(records) == 0
    doubled = records + records[:1]
    assert duplicated(doubled) == 1
    with pytest.raises(CheckFailed):
        check_answer(query, doubled, docs)


def test_wrong_moa_result_is_rejected(corpus):
    from repro.moa.rewrite import builtin_moa_plans
    from catalog import feature_bats

    db, docs = _store(corpus)
    rows = docs[0]
    bats = feature_bats(rows)
    plans = builtin_moa_plans()
    for name in sorted(plans):
        result = db.compiler.run(plans[name], **bats)
        check_moa(name, result, rows.tracks)
    gate = db.compiler.run(plans["excitementGate"], **bats)
    gate.insert(len(rows.tracks["excitement"]) + 7, 0.99)  # one spurious row
    with pytest.raises(CheckFailed):
        check_moa("excitementGate", gate, rows.tracks)
    with pytest.raises(CheckFailed):
        check_moa("avgExcitement", 0.5, rows.tracks)


def test_allen_relations_from_their_definitions():
    assert allen((0, 5), (10, 20), 0.5) == "before"
    assert allen((0, 10), (10.2, 20), 0.5) == "meets"
    assert allen((12, 15), (10, 20), 0.5) == "during"
    assert allen((5, 15), (10, 20), 0.5) == "overlaps"
    assert allen((10, 20), (10.3, 19.8), 0.5) == "equals"
    assert allen((25, 30), (10, 20), 0.5) == "after"


def test_known_fault_counts_but_keeps_the_run_correct():
    recorder = Recorder(classify=lambda cls, e: KnownFault("f") if cls == "x" else e)
    recorder.op("x", lambda: 1 / 0)
    recorder.op("y", lambda: 1, lambda answer: None)
    recorder.op("z", lambda: 1, lambda answer: (_ for _ in ()).throw(CheckFailed("bad")))
    assert (recorder.attempted, recorder.failed) == (3, 2)
    assert recorder.known_faults == {"f": 1}
    assert len(recorder.unexpected) == 1


def test_inputs_repeat_for_a_seed():
    a = archive_document(11, 4, 240.0)[1]
    b = archive_document(11, 4, 240.0)[1]
    c = archive_document(12, 4, 240.0)[1]
    assert [e.__dict__ for e in a.events] == [e.__dict__ for e in b.events]
    assert np.array_equal(a.tracks["speed"], b.tracks["speed"])
    assert a.video_id == c.video_id  # names never depend on the seed
    assert [e.start for e in a.events] != [e.start for e in c.events]
    assert isinstance(evaluate(QUERIES[0], [a]), list)
    assert DocRows.of(archive_document(11, 4, 240.0)[0]).video_id == "gp004"
