"""Soak-run telemetry round trip: the federation streams
schema-valid JSONL (trace and metrics), a cost profile, and zero burn-rate
alerts under the default Theorem 7.2 bound."""

import json
import pathlib

from repro.obs import validate_jsonl_file, validate_telemetry_file
from repro.soak import SoakConfig, run_soak, slo_report


def test_soak_telemetry_round_trip(tmp_path):
    telemetry_dir = tmp_path / "telemetry"
    config = SoakConfig(
        sources=8,
        seed=3,
        steps=12,
        checkpoint_every=6,
        telemetry_dir=str(telemetry_dir),
    )
    result = run_soak(config)
    assert result.ok, (result.convergence_violations, result.slo_violations)
    assert result.telemetry_dir == str(telemetry_dir)
    assert result.alerts == []  # a healthy run never pages

    # The trace round-trips through the checked-in schema, including the
    # profiler/telemetry events added in this PR.
    trace_path = telemetry_dir / "trace.jsonl"
    assert validate_jsonl_file(trace_path) > 0
    names = {
        json.loads(line)["name"] for line in trace_path.read_text().splitlines()
    }
    assert "metrics_snapshot" in names  # the pipeline mirrors into the trace
    assert "update_txn" in names

    # The metrics stream round-trips too: meta header, one snapshot per
    # step (cadence 1), the final cost profile, and the close() sample.
    metrics_path = telemetry_dir / "metrics.jsonl"
    count = validate_telemetry_file(metrics_path)
    records = [json.loads(line) for line in metrics_path.read_text().splitlines()]
    assert count == len(records) == config.steps + 3
    assert records[0]["kind"] == "meta"
    assert records[0]["bound"] == config.staleness_bound
    kinds = [r["kind"] for r in records]
    assert kinds.count("metrics") == config.steps + 1
    assert kinds.count("alert") == 0
    # Snapshots carry the registry counters and the pipeline's instruments.
    final = [r for r in records if r["kind"] == "metrics"][-1]
    assert final["metrics"]["soak.updates_applied"] == result.stats.updates_applied
    assert final["metrics"]["telemetry.alerts"] == 0
    assert final["metrics"]["telemetry.staleness"]["count"] > 0

    # The profile lands both in the stream and as its own artifact.
    (profile_record,) = [r for r in records if r["kind"] == "profile"]
    document = json.loads((telemetry_dir / "profile.json").read_text())
    assert document["kind"] == "cost-profile"
    assert profile_record["profile"] == document
    assert document["nodes"], "the soak propagated through no nodes?"
    assert document["txns"]["count"] > 0
    assert document["attribute_costs"]

    # The SLO report points at the artifacts and carries the alert list.
    report = slo_report(result)
    assert report["telemetry_dir"] == str(telemetry_dir)
    assert report["freshness"]["burn_rate_alerts"] == []


def test_soak_without_telemetry_leaves_surfaces_empty(tmp_path):
    result = run_soak(SoakConfig(sources=6, seed=1, steps=8, checkpoint_every=4))
    assert result.telemetry_dir is None
    assert result.alerts == []
    assert slo_report(result)["telemetry_dir"] is None
    assert not list(pathlib.Path(tmp_path).iterdir())


def test_soak_telemetry_streams_are_structurally_deterministic(tmp_path):
    """Two runs of the same seed emit the same record structure (kinds,
    steps, counter values) — only wall-clock readings may differ."""
    results = []
    for tag in ("a", "b"):
        config = SoakConfig(
            sources=8,
            seed=5,
            steps=10,
            checkpoint_every=5,
            telemetry_dir=str(tmp_path / tag),
        )
        run_soak(config)
        path = tmp_path / tag / "metrics.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        results.append(
            [
                (
                    r["kind"],
                    r["step"],
                    r.get("metrics", {}).get("soak.updates_applied"),
                    r.get("metrics", {}).get("iup.rules_fired"),
                )
                for r in records
            ]
        )
    assert results[0] == results[1]
