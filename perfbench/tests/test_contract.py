"""``run.py`` prints exactly the metrics ``BENCHMARK.json`` declares."""

import json
from pathlib import Path

from perfbench import run
from perfbench.tracing import SpanRecorder, layer_metrics

SPEC = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_end_to_end_names_and_units_match_the_spec():
    assert run.E2E_UNITS == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_per_layer_names_and_units_match_the_spec():
    names = set(layer_metrics(SpanRecorder())) | set(run.TRACE_EXTRAS)
    assert names == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert run._layer_unit(m["name"]) == m["unit"], m["name"]


def test_workload_names_match_the_spec():
    from perfbench.workloads import WORKLOADS

    assert list(WORKLOADS) == list(run.WORKLOAD_NAMES) == [w["name"] for w in SPEC["workloads"]]
