"""Tier-1 smoke test of the ledger (collected by the root ``pytest``).

``run.py --smoke`` runs all six workloads at toy sizes, in one process,
once untraced and once traced.  Checked here: the two front ends'
output schemas, that ``BENCHMARK.json`` and the runner name exactly
the same workloads and metrics, the contract's limits on names and
counts, that the deterministic metrics repeat, and that the runner
refuses to run without a program to measure.  The numbers themselves
mean nothing at these sizes.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

LEDGER = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(LEDGER))
RUN = os.path.join(LEDGER, "run.py")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
LEDGER_ONLY = {"store_bytes", "fail_share"}


def run_ledger(*args, cwd=ROOT, script=RUN):
    # The ledger measures the defaults and refuses to run under
    # REPRO_* switches; the suite may be running under some.
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    return subprocess.run([sys.executable, script, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "smoke.json"
    proc = run_ledger("--smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    with open(out, encoding="utf-8") as f:
        return str(out), json.load(f), proc.stdout


def test_contract_file_is_within_its_limits(contract):
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert contract["paths"] == ["benchmarks/ledger"]
    assert 1 <= contract["run_seconds"] <= 60
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer")
             for row in contract[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for row in contract["workloads"]:
        assert set(row) == {"name", "why"}
        assert 0 < len(row["why"]) <= 200 and "\n" not in row["why"]
    for row in contract["end_to_end"]:
        assert set(row) == {"name", "unit", "better", "bound"}
        assert 0 <= row["bound"] <= 0.25
    for row in contract["per_layer"]:
        assert set(row) == {"name", "unit", "better"}
    for row in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(row["unit"])
        assert row["better"] in ("lower", "higher")
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": 0.25} in contract["end_to_end"]
    limit = os.path.getsize(os.path.join(ROOT, "BENCHMARK.json"))
    assert limit <= 64 * 1024


def test_smoke_runs_every_workload_correctly(contract, smoke):
    _, summary, _ = smoke
    wanted = [row["name"] for row in contract["workloads"]]
    assert list(summary["workloads"]) == wanted
    assert summary["claim"] is None
    for name, result in summary["workloads"].items():
        assert result["failed"] == 0, (name, result["messages"])
        assert result["attempted"] >= 1


def test_runner_and_contract_name_the_same_metrics(contract, smoke):
    _, summary, stdout = smoke
    end_to_end = {row["name"] for row in contract["end_to_end"]}
    per_layer = {row["name"] for row in contract["per_layer"]}
    for name, result in summary["workloads"].items():
        # Every contract metric on every workload; a store's size only
        # where there is a store.
        emitted = set(result["metrics"])
        assert end_to_end <= emitted <= end_to_end | LEDGER_ONLY, name
        assert set(result["layers"]) == per_layer, name
        for row in result["metrics"].values():
            assert set(row) == {"median", "iqr", "n"}
            assert row["n"] >= 1
        for metric in end_to_end:
            assert result["metrics"][metric]["median"] > 0, (name, metric)
    # The report prints every metric by name.
    for metric in end_to_end | per_layer:
        assert re.search(rf"^\s+{re.escape(metric)}\s", stdout, re.M), metric


def test_driver_front_end_prints_one_result_line(contract):
    proc = run_ledger("--smoke", "--workload", "fleet_adopt",
                      "--seed", "3", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    units = {row["name"]: row["unit"] for row in contract["end_to_end"]}
    assert set(result["metrics"]) == set(units)
    for name, cell in result["metrics"].items():
        assert set(cell) == {"value", "unit"}
        assert cell["unit"] == units[name]
        assert isinstance(cell["value"], (int, float)) and cell["value"] > 0


def test_compare_accepts_a_run_against_itself(smoke):
    path, _, _ = smoke
    proc = run_ledger("--compare", path, path)
    assert proc.returncode == 0, proc.stdout[-2000:]
    rows = [line for line in proc.stdout.splitlines()[1:] if line.strip()]
    assert len(rows) >= 6 * 11
    assert all(row.endswith(" ok") for row in rows)


def test_refuses_to_run_without_a_program(tmp_path):
    """In a directory that holds only BENCHMARK.json and the
    benchmark's own files there is nothing to measure: the runner must
    fail without printing a result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(LEDGER, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    script = str(tmp_path / "benchmarks" / "ledger" / "run.py")
    proc = run_ledger("--workload", "aot_exec", "--seed", "1",
                      "--seconds", "1", "--trace", "0",
                      cwd=str(tmp_path), script=script)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
