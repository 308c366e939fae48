"""Smoke test of the benchmark itself.  Outside tier-1 ``testpaths``; run it
explicitly::

    python -m pytest benchmarks/e2e/test_smoke.py -q

``--scale 0.1`` here is the issue's ``--scale 0.02``: the contract's run
length cut every repeat's stream to as little as 1/6 of the issue's, so the
same tiny stream needs a larger factor (below it fig1's 5 % update class
would be empty).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import metrics as catalogue  # noqa: E402

RUN = [sys.executable, os.path.join(HERE, "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run(*args, cwd=ROOT):
    return subprocess.run([*RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=170)


def full(tmp_path, seed, tag):
    out = tmp_path / f"{tag}.json"
    started = time.monotonic()
    done = run("--seed", str(seed), "--scale", "0.1", "--seconds", "0", "--out", str(out),
               "--trace-out", str(tmp_path / f"{tag}.spans.json"))
    assert done.returncode == 0, done.stdout + done.stderr
    assert time.monotonic() - started < 30
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    return tmp, full(tmp, 11, "a"), full(tmp, 11, "b"), full(tmp, 12, "c")


def test_benchmark_json_is_what_the_catalogue_says():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    whys = {w["name"]: w["why"] for w in declared["workloads"]}
    assert declared == catalogue.benchmark_json(whys, declared["run_seconds"])
    assert tuple(whys) == catalogue.ALL
    assert all(len(why) <= 200 and "\n" not in why for why in whys.values())
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in declared["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    # A time only some workloads produce would read 0 on every run elsewhere.
    partial = {m.name for m in catalogue.PER_LAYER if m.workloads != catalogue.ALL}
    listed_times = {m["name"] for m in declared["per_layer"] if m["unit"] in ("s", "ms")}
    assert not partial & listed_times


def test_every_metric_for_the_right_workloads(records):
    _, a, _, _ = records
    assert a["seed"] == 11 and a["nproc"] and a["python"] and a["flush_policy"]
    assert tuple(a["workloads"]) == catalogue.ALL
    for name, w in a["workloads"].items():
        assert w["failed"] == 0 and w["end_to_end"]["error_rate"]["value"] == 0
        for section, listed in (("end_to_end", catalogue.END_TO_END),
                                ("per_layer", catalogue.PER_LAYER)):
            expected = {m.name: m.unit for m in listed if name in m.workloads}
            assert set(w[section]) == set(expected), (name, section)
            for metric, m in w[section].items():
                assert NAME.match(metric) and m["unit"] == expected[metric] and "n" in m
        assert len(w["end_to_end"]["ops_per_s"]["raw"]) == w["repeats"] >= 3


def test_each_workload_loads_its_layers_and_bypasses_the_others(records):
    _, a, _, _ = records
    layers = {name: w["per_layer"] for name, w in a["workloads"].items()}
    for fig4 in (catalogue.TRICKLE, catalogue.BURST):
        assert layers[fig4]["sources.polls_per_op"]["value"] == 0
        assert layers[fig4]["core.vap.time_share"]["value"] == 0
    assert layers[catalogue.BURST]["core.update_queue.deltas_compacted_per_txn"]["value"] > 0
    assert layers[catalogue.FIG1]["sources.polls_per_op"]["value"] > 0
    assert layers[catalogue.FIG1]["sources.pushdown_ratio"]["value"] == 1
    for fig in (catalogue.TRICKLE, catalogue.BURST, catalogue.FIG1):
        assert not any(k.startswith(("durability.", "replication.")) and not k.endswith("time_share")
                       for k in layers[fig])
        assert layers[fig]["durability.time_share"]["value"] == 0
    fed = layers[catalogue.FED50]
    assert fed["replication.resyncs"]["value"] == 1
    assert fed["durability.time_share"]["value"] > 0 and fed["replication.time_share"]["value"] > 0
    for w in a["workloads"].values():
        shares = sum(m["value"] for k, m in w["per_layer"].items()
                     if k.endswith(".time_share") and k != "durability.checkpoint_time_share")
        assert shares + w["per_layer"]["bench.unattributed_share"]["value"] == pytest.approx(1, abs=0.02)


def test_same_seed_same_program_other_seed_other_answers(records):
    _, a, b, c = records
    for name in catalogue.ALL:
        wa, wb, wc = (r["workloads"][name] for r in (a, b, c))
        assert wa["digest"] == wb["digest"] and wa["counters"] == wb["counters"]
        assert wa["digest"] != wc["digest"]
        counts = {k: m["value"] for k, m in wa["per_layer"].items()
                  if m["unit"] in ("count", "rows", "bytes")}
        assert counts == {k: wb["per_layer"][k]["value"] for k in counts}


def test_trace_is_written_once_with_parents(records):
    tmp, _, _, _ = records
    trace = json.loads((tmp / "a.spans.json").read_text())
    assert trace["columns"] == ["name", "start", "end", "parent", "count"]
    spans = trace["spans"][catalogue.FED50]
    names = {s[0] for s in spans}
    assert {"sources.execute", "core.iup.txn", "durability.wal_append", "replication.apply",
            "durability.recover"} <= names
    assert all(s[3] < i and s[1] <= s[2] for i, s in enumerate(spans))


def test_driver_line_has_exactly_the_declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        done = run("--workload", catalogue.BURST, "--seed", "5", "--seconds", "0",
                   "--scale", "0.1", "--trace", trace)
        assert done.returncode == 0, done.stderr
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert {k: v["unit"] for k, v in line["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared[section]
        }


def test_compare_verdicts(records):
    tmp, a, _, _ = records
    same = run("--compare", str(tmp / "a.json"), str(tmp / "b.json"))
    assert same.returncode == 0 and "regressed" not in same.stdout
    worse = json.loads(json.dumps(a))
    ops = worse["workloads"][catalogue.TRICKLE]["end_to_end"]["ops_per_s"]
    for key in ("value", "min", "max"):
        ops[key] /= 2
    (tmp / "worse.json").write_text(json.dumps(worse))
    done = run("--compare", str(tmp / "a.json"), str(tmp / "worse.json"))
    assert done.returncode == 1
    row = next(l for l in done.stdout.splitlines() if catalogue.TRICKLE in l and "ops_per_s" in l)
    assert row.split()[-1] == "regressed"


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", catalogue.TRICKLE,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{")
