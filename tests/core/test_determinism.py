"""Determinism of the default mediator: repeated runs byte-agree.

The same workload must land every repository in the same state with the
same counters — in one process run twice (trace record sequence
included) and across processes started with different ``PYTHONHASHSEED``
values, so no result or counter may depend on hash iteration order.
"""

import subprocess
import sys

from repro.workloads import figure4_mediator


def snapshot(mediator):
    return {
        name: sorted((tuple(sorted(dict(r).items())), n) for r, n in repo.items())
        for name, repo in mediator.store.repos().items()
    }


_DIGEST_SCRIPT = r"""
import hashlib, json, sys
from repro.workloads import figure1_mediator, figure1_sources

mediator, sources = figure1_mediator(
    "ex21", sources=figure1_sources(r_rows=120, s_rows=60, seed=5)
)
sources["db1"].insert("R", r1=900_001, r2=7, r3=3, r4=100)
sources["db2"].delete("S", **dict(sorted(sources["db2"].relation("S").rows(),
                                         key=lambda r: sorted(r.items()))[0]))
mediator.refresh()
payload = {
    "repos": {
        name: sorted((tuple(sorted(dict(r).items())), n) for r, n in repo.items())
        for name, repo in mediator.store.repos().items()
    },
    "stats": mediator.stats().as_dict(),
}
print(hashlib.sha256(json.dumps(payload, sort_keys=True, default=str).encode()).hexdigest())
"""


def _run_digest(hash_seed: str) -> str:
    import os

    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    out = subprocess.run(
        [sys.executable, "-c", _DIGEST_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return out.stdout.strip()


def test_run_is_hash_seed_independent():
    """The same workload under different PYTHONHASHSEED values must produce
    identical repositories AND identical counters — delta diff order
    (sorted) may not leak hash order."""
    assert _run_digest("1") == _run_digest("2")


def test_repeated_runs_agree_exactly():
    """Two identical in-process runs: same repositories, same counters,
    same trace record sequence."""
    from repro.obs import Tracer

    def one_run():
        tracer = Tracer(enabled=True, clock=lambda: 0.0)
        mediator, sources = figure4_mediator("all_m", tracer=tracer)
        sources["dbC"].insert("C", c1=2, c2=4)
        sources["dbD"].insert("D", d1=2, d2=9)
        mediator.refresh()
        names = [r.get("name") for r in tracer.records()]
        return snapshot(mediator), mediator.stats().as_dict(), names

    first = one_run()
    second = one_run()
    assert first == second
