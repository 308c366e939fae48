"""Golden bytes of every checkpoint file of one small canned durable run.

A checkpoint is the JSON image recovery starts from, so its bytes are
pinned the same way the WAL's are: a change to the encoder (key order,
separators, number formatting) or to what an incremental checkpoint
images shows up here as a different digest.

A repository's row order follows hash order, so the run happens in a child
process under ``PYTHONHASHSEED=0`` whatever seed the suite itself runs
under.
"""

import hashlib
import os
import subprocess
import sys

from repro.durability import CheckpointPolicy, DurabilityManager
from repro.workloads import figure1_mediator
from repro.workloads.scenarios import figure1_sources

#: sha256 of each checkpoint file the canned run leaves under
#: ``PYTHONHASHSEED=0``, by file name.
GOLDEN_SHA256 = {
    "ckpt-00000000.json": "6e245ff06502412a37e03e37f685742e6a9b6c0d785b237372ab349d4f470fd8",
    "ckpt-00000001.json": "79f7127266aa2fc53e8970cc420d588aacfe7c2d9c1c6869176aa113ae1a3c53",
    "ckpt-00000002.json": "70338d028237f797f85331cacc5048cd64af3f8fc565fef437444b327914a6c0",
    "ckpt-00000003.json": "8a5573981ae965e168f221e9ecfcbe4e7359f62b99b0c52f92ed1ca1e8aff8b0",
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


def test_checkpoint_bytes_of_canned_run_are_pinned(tmp_path):
    env = dict(os.environ, PYTHONHASHSEED="0")
    subprocess.run([sys.executable, __file__, str(tmp_path)], env=env, check=True)
    files = sorted(name for name in os.listdir(tmp_path) if name.startswith("ckpt-"))
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in files
    }
    assert digests == GOLDEN_SHA256


if __name__ == "__main__":
    canned_run(sys.argv[1])
