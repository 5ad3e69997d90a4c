"""ResultStore write path: file bytes, round trip and failed writes."""

import io
import json

import pytest

from repro.campaign import (
    ResultStore,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    run_scenario,
)
from repro.units import KBYTE


def _spec(streaming: bool) -> ScenarioSpec:
    if streaming:
        workload = WorkloadSpec("open_system", {
            "duration": 0.05, "rate_per_sec": 1000.0, "size_scale": 0.01,
        })
        options = {"streaming_metrics": True}
    else:
        workload = WorkloadSpec("fig3.aggregation", {
            "n_flows": 3, "mean_size": 100 * KBYTE, "mean_deadline": None,
        })
        options = {}
    return ScenarioSpec(
        protocol="RCP",
        topology=TopologySpec("single_rooted"),
        workload=workload,
        engine="flow",
        seed=3,
        options=options,
    )


@pytest.fixture(params=["exact", "streaming"])
def stored(request, tmp_path):
    spec = _spec(streaming=request.param == "streaming")
    collector = run_scenario(spec)
    assert type(collector).__name__ == (
        "StreamingMetricsCollector" if request.param == "streaming"
        else "MetricsCollector"
    )
    # non-ASCII text and a float with a long repr pin the encoder's
    # escaping and float formatting, not only the payload structure
    collector.trace.append({"note": "naïve → café", "t": 0.1 + 0.2})
    store = ResultStore(tmp_path)
    path = store.put(spec, collector, elapsed=1 / 3)
    return store, spec, collector, path


def test_file_text_equals_json_dump_output(stored):
    _, _, _, path = stored
    text = path.read_text()
    expected = io.StringIO()
    json.dump(json.loads(text), expected)
    assert text == expected.getvalue()
    assert text.isascii()


def test_get_restores_an_equal_collector(stored):
    store, spec, collector, _ = stored
    restored = store.get(spec)
    assert restored is not None
    assert type(restored) is type(collector)
    assert restored.to_dict() == collector.to_dict()


def test_unencodable_payload_raises_and_leaves_no_temp_file(stored,
                                                            monkeypatch):
    store, spec, collector, path = stored
    before = path.read_text()
    monkeypatch.setattr(collector, "to_dict",
                        lambda: {"records": [], "bad": object()})
    with pytest.raises(TypeError):
        store.put(spec, collector)
    assert list(store.root.glob("*.tmp")) == []
    # the earlier entry for the same key is left as it was
    assert path.read_text() == before
