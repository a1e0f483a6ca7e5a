"""Tests of the benchmark's own machinery: generator, spans, wrappers, checks."""

from __future__ import annotations

import json
import types

import pytest

import nslgen
import run
from spans import Recorder, Span, covered, install, self_times

SMALL = {"normal": 300, "neptune": 120, "smurf": 30, "spy": 2}


def test_generator_same_seed_same_bytes():
    first, n_rows, encoded = nslgen.generate(11, SMALL)
    again, _, _ = nslgen.generate(11, SMALL)
    other, _, _ = nslgen.generate(12, SMALL)
    assert first == again
    assert first != other
    assert n_rows == sum(SMALL.values()) == first.count(b"\n") - 1
    assert encoded == nslgen.ENCODED_FEATURES == 122


def test_generator_layout_matches_schema():
    schema = json.loads((run.ROOT / "configs/nsl-kdd.schema.json").read_text())
    assert nslgen.HEADER == tuple(schema["columns"])
    assert nslgen.N_ROWS == 125973
    header = nslgen.generate(3, SMALL)[0].split(b"\n", 1)[0].decode()
    assert header.split(",") == list(schema["columns"])


def _span(id, start, end, parent=None, thread=1, name="x", **attrs):
    return Span(id, name, start, end, parent, thread, attrs)


def test_self_time_on_synthetic_tree():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1),
        _span(3, 3.0, 6.0, parent=1, thread=2),  # overlaps span 2 on another thread
        _span(4, 7.0, 8.0, parent=1),
        _span(5, 2.0, 3.0, parent=2),
        _span(6, 3.5, 5.0, parent=2),  # runs past its parent's end: clipped
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[2] == pytest.approx(3.0 - 1.0 - 0.5)
    assert (own[3], own[4], own[5]) == pytest.approx((3.0, 1.0, 1.0))
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 9.0)], 0.5, 6.0) == pytest.approx(3.5)


def test_wrapper_returns_exactly_what_it_wraps():
    recorder = Recorder("w", 0)
    sentinel = object()
    outer = recorder.wrap(lambda f, key=None: (f(), key), "outer")
    inner = recorder.wrap(lambda: sentinel, "inner", lambda a, k, r: {"same": r is sentinel})
    value, key = outer(inner, key="k")
    assert value is sentinel and key == "k"

    def boom():
        raise KeyError("lost")

    with pytest.raises(KeyError):
        recorder.wrap(boom, "boom")()
    broken = recorder.wrap(lambda: 5, "broken", lambda a, k, r: a[3])
    assert broken() == 5
    by_name = {s.name: s for s in recorder.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["inner"].attrs == {"same": True}
    assert "describe_error" in by_name["broken"].attrs
    assert by_name["boom"].end >= by_name["boom"].start


def test_install_reports_absent_names_and_keeps_others():
    module = types.SimpleNamespace(present=lambda x: x + 1)
    recorder = Recorder("w", 0)
    missing = install(recorder, module, {"present": None, "gone": None}, "mod")
    assert missing == ["mod.gone"]
    assert module.present(1) == 2
    assert [s.name for s in recorder.spans] == ["mod.present"]


def _traced(names: list[str]) -> list[Span]:
    spans = [_span(1, 0.0, 10.0, name="cli.main")]
    for i, name in enumerate(names):
        attrs = {"variant": "lof", "rows": 10, "cells": 4, "sigma_zero": True, "features": 2}
        spans.append(_span(i + 2, 1.0 + i * 0.1, 1.05 + i * 0.1, parent=1, name=name, **attrs))
    return spans


def test_layer_metrics_cover_benchmark_json_and_report_missing():
    wrapped = sorted({n for sources in run.SOURCES.values() for n in sources})
    metrics, gone = run.layer_metrics(_traced(wrapped), [], 9.0, 10.0, 5.0)
    per_layer = [m["name"] for m in run._spec()["per_layer"]]
    assert sorted(metrics) == sorted(per_layer)
    assert gone == []
    assert metrics["process.cpu_util"] == pytest.approx(0.5)
    assert metrics["trace.overhead_s"] == pytest.approx(1.0)

    metrics, gone = run.layer_metrics(_traced(wrapped), ["supervised.rf_fit"], 9.0, 10.0, 5.0)
    assert "supervised.rf_fit.s" in gone and "supervised.fit_ratio" in gone
    assert not set(gone) & set(metrics)
    assert "detectors.fit.lof.s" in metrics


def test_trace_integrity_flags_overlapping_children_on_one_worker():
    sequential = [_span(1, 0.0, 10.0), _span(2, 1.0, 3.0, parent=1), _span(3, 4.0, 6.0, parent=1)]
    assert run.trace_integrity(sequential, workers=1) is None
    threaded = sequential + [_span(4, 2.0, 5.0, parent=1, thread=2)]
    assert run.trace_integrity(threaded, workers=1) is not None
    assert run.trace_integrity(threaded, workers=2) is None


def test_differing_bytes_fail_the_repetition():
    reps = [{"index": i, "error": None, "sha256": sha} for i, sha in enumerate("aab")]
    run.check_repetitions(reps)
    assert [r["error"] is None for r in reps] == [True, True, False]


def test_failing_repetition_is_counted_in_error_rate(tmp_path, monkeypatch):
    config = tmp_path / "missing-csv.json"
    config.write_text(json.dumps({
        "seed": 1,
        "dataset": {"csv": str(tmp_path / "absent.csv"),
                    "schema": str(run.ROOT / "configs/nsl-kdd.schema.json")},
    }))
    workload = run.Workload(1, 80, lambda work, seed: ["occ-eval", "--config", str(config)])
    monkeypatch.setitem(run.WORKLOADS, "missing-csv", workload)
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    result = run.run_workload("missing-csv", seed=1, seconds=0.0, trace=False)
    assert result["attempted"] == run.MIN_REPS
    assert result["failed"] == run.MIN_REPS
    assert result["provenance"]["error_rate"] == 1.0
    assert result["correct"] is False
    assert all("exit code 3" in p for p in result["provenance"]["problems"])


def test_refuses_a_directory_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "occ-demo", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
