"""Smoke test: every workload runs end to end at ``--seconds 0.4``
(scale 0.02) and its output matches the ``BENCHMARK.json`` declaration.

The three single-process workloads run in this process.  The cluster
workload, which spawns its shard workers anyway, runs beside them
through the command line, the way the benchmark driver starts it — so
the argument parsing, the ``PYTHONHASHSEED`` re-exec and the last-line
result object are covered too.  Nothing here asserts a timing.
"""

from __future__ import annotations

import json
import re
import signal
import subprocess
import sys

import pytest

from nousbench import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
DECLARATION = run.load_declaration()
WORKLOADS = [w["name"] for w in DECLARATION["workloads"]]
SECONDS = 0.4
CLI_WORKLOAD = "cluster-mixed"


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """workload -> (result object, span-file path); one untraced and one
    traced pass each (``--trace both``)."""
    out_dir = tmp_path_factory.mktemp("nousbench-out")
    cli = subprocess.Popen(
        [
            sys.executable, run.__file__, "--workload", CLI_WORKLOAD,
            "--seed", "11", "--seconds", str(SECONDS), "--out-dir", str(out_dir),
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("TMPDIR", str(tmp_path_factory.mktemp("nousbench-work")))
            results = {
                workload: run.run_one(
                    workload, 11, SECONDS / DECLARATION["run_seconds"], "both",
                    str(out_dir),
                )
                for workload in WORKLOADS
                if workload != CLI_WORKLOAD
            }
        stdout, _ = cli.communicate(timeout=120)
    finally:
        if cli.poll() is None:
            # An interrupt unwinds run.py, which stops its shard workers.
            cli.send_signal(signal.SIGINT)
            cli.wait(timeout=60)
    assert cli.returncode == 0, stdout
    results[CLI_WORKLOAD] = json.loads(stdout.splitlines()[-1])
    return {
        workload: (result, out_dir / f"nousbench-trace-{workload}.json")
        for workload, result in results.items()
    }


def test_declaration_is_well_formed():
    assert set(DECLARATION) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    names = [
        item["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for item in DECLARATION[key]
    ]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(name) for name in names)
    assert any(m["name"] == "setup_s" for m in DECLARATION["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in DECLARATION["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_declared_metric(runs, workload):
    result, _spans = runs[workload]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {
        m["name"]: m["unit"]
        for key in ("end_to_end", "per_layer")
        for m in DECLARATION[key]
    }
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]
        assert isinstance(metric["value"], (int, float))
    for m in DECLARATION["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_span_file_parses_and_every_parent_exists(runs, workload):
    trace = json.loads(runs[workload][1].read_text())
    assert trace["meta"]["workload"] == workload
    ids = {span["id"] for span in trace["spans"]}
    assert len(ids) == len(trace["spans"]) > 0
    for span in trace["spans"]:
        assert span["parent"] is None or span["parent"] in ids
        assert span["end"] >= span["start"]
