"""Tests of the campaign benchmark in ``perfbench/``.

Reduced-size runs of every workload must print every metric that
``BENCHMARK.json`` names, with its unit, and pass their own output,
bypass and attribution checks. The workloads' spec lists must follow
their seed, and pinned digests must reproduce.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from bench_child import outcome_digest  # noqa: E402
from bench_workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
MANIFEST = json.loads((BENCH / "manifest.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0.4",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_reduced_run_emits_every_metric(workload, trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stderr
    assert result["failed"] == 0
    assert result["attempted"] >= 12
    table = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in table}
    assert all(isinstance(metric["value"], (int, float))
               for metric in result["metrics"].values())


def test_seed_changes_specs_but_not_their_shapes():
    for workload in WORKLOADS.values():
        one = workload.specs(1, 1)
        again = workload.specs(1, 1)
        other = workload.specs(2, 1)
        assert [s.key for s in one] == [s.key for s in again]
        assert not {s.key for s in one} & {s.key for s in other}
        assert ([s.with_(seed=0) for s in one]
                == [s.with_(seed=0) for s in other])


def test_shorter_run_is_a_prefix():
    for workload in WORKLOADS.values():
        short, full = workload.specs(5, 1), workload.specs(5, 3)
        assert len(short) < len(full)
        assert [s.key for s in short] == [s.key for s in full[:len(short)]]


def test_default_seed_reproduces_pinned_digests():
    from repro.campaign import run_scenario

    for workload in WORKLOADS.values():
        pinned = json.loads(
            (BENCH / "pinned" / f"{workload.name}.json").read_text())
        assert pinned["seed"] == DEFAULT_SEED
        for spec in workload.specs(DEFAULT_SEED, 0)[:2]:
            assert outcome_digest(run_scenario(spec)) == \
                pinned["cells"][spec.key]


def test_manifest_matches_the_benchmark():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(WORKLOADS) == list(MANIFEST["workloads"])
    assert MANIFEST["run_seconds"] == BENCHMARK["run_seconds"]
    assert MANIFEST["default_seed"] == DEFAULT_SEED
    for name, record in MANIFEST["workloads"].items():
        workload = WORKLOADS[name]
        assert record["cells"] == workload.n_cells(BENCHMARK["run_seconds"])
        assert record["bypassed"] == list(workload.bypassed)
        assert (record["loop"], record["concurrency"]) == ("closed", 1)
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    cited = set()
    for row in MANIFEST["predictions"]:
        assert set(row["layer_metrics"]) <= per_layer, row["id"]
        assert set(row["moves"]) <= end_to_end, row["id"]
        assert set(row["chiefly_on"] + row["unchanged_on"]) <= set(names)
        cited.update(row["layer_metrics"])
    assert cited == per_layer


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("pdq-fanin", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
