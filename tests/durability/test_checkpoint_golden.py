"""Golden bytes of every checkpoint file of one small canned durable run.

A checkpoint is the JSON image recovery starts from, so its bytes are
pinned the same way the WAL's are: a change to the encoder (key order,
separators, number formatting, the canonical row order) or to what an
incremental checkpoint images shows up here as a different digest.

Rows are written in one canonical order, so the bytes depend on the
committed state alone: the run happens in-process under whatever hash seed
the suite runs with, and two processes under different seeds write
byte-identical checkpoint and WAL files.
"""

import hashlib
import os
import subprocess
import sys

from repro.durability import CheckpointPolicy, DurabilityManager
from repro.workloads import figure1_mediator
from repro.workloads.scenarios import figure1_sources

#: sha256 of each checkpoint file the canned run leaves, by file name, in
#: the canonical-row-order format (rows sorted by their type-tagged values).
GOLDEN_SHA256 = {
    "ckpt-00000000.json": "b2f05bac614505c9f9c7b161874dab61635ff3dcaf34e81e91a3736d8b6cb6eb",
    "ckpt-00000001.json": "58062157322bcbc542440ed517decbf816a737024de4a2a6aeb1550c905a6a4b",
    "ckpt-00000002.json": "66ca8b107a906472b7d8114c187245483205a4c00d26d41fd3f4fe73424aae87",
    "ckpt-00000003.json": "60a7353264e9a6cd655a43643a934553820552bed56f485f388f2b6f94f2205b",
}


def _r(r1, r2=3, r3=5, r4=100):
    return {"r1": r1, "r2": r2, "r3": r3, "r4": r4}


def canned_run(directory):
    """A base checkpoint, two incremental ones taken by the policy, and a
    full one on demand, over inserts, deletes and an update."""
    sources = figure1_sources(r_rows=20, s_rows=10, seed=5)
    db1, db2 = sources["db1"], sources["db2"]
    mediator, _ = figure1_mediator("ex21", sources=sources)
    manager = DurabilityManager.attach(
        mediator, directory, policy=CheckpointPolicy(every_txns=2, every_wal_bytes=0)
    )

    db1.insert("R", **_r(1000))
    db2.insert("S", s1=3, s2=40, s3=10)
    mediator.refresh()
    db1.update("R", _r(1000), _r(1000, r3=6))
    mediator.refresh()  # second transaction: incremental checkpoint 1

    db1.insert("R", **_r(1001, r4=200))
    mediator.refresh()
    db1.delete("R", **_r(1001, r4=200))
    db2.delete("S", s1=3, s2=40, s3=10)
    mediator.refresh()  # fourth transaction: incremental checkpoint 2

    db1.insert("R", **_r(1002, r2=7))
    mediator.refresh()
    manager.checkpoint(full=True)  # checkpoint 3, on demand
    manager.close()


def digests(directory):
    return {
        name: hashlib.sha256(open(os.path.join(directory, name), "rb").read()).hexdigest()
        for name in sorted(os.listdir(directory))
    }


def test_checkpoint_bytes_of_canned_run_are_pinned(tmp_path):
    canned_run(str(tmp_path))
    found = {name: d for name, d in digests(tmp_path).items() if name.startswith("ckpt-")}
    assert found == GOLDEN_SHA256


def test_canned_run_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    """This canned run and the WAL golden's, each in a child process under
    hash seeds 1 and 2: every checkpoint and WAL file is byte-identical."""
    runs = []
    for seed in ("1", "2"):
        directory = tmp_path / f"seed-{seed}"
        env = dict(os.environ, PYTHONHASHSEED=seed)
        subprocess.run([sys.executable, __file__, str(directory)], env=env, check=True)
        runs.append(
            {
                (run, name): digest
                for run in ("checkpoints", "wal")
                for name, digest in digests(directory / run).items()
            }
        )
    assert {name for run, name in runs[0] if run == "checkpoints"} >= set(GOLDEN_SHA256)
    assert os.path.getsize(tmp_path / "seed-1" / "wal" / "wal.log") > 0
    assert runs[0] == runs[1]


if __name__ == "__main__":
    from test_wal_golden import canned_run as wal_canned_run

    canned_run(os.path.join(sys.argv[1], "checkpoints"))
    wal_canned_run(os.path.join(sys.argv[1], "wal"))
