"""Regenerate ``reference.json``: the committed output digests.

For every serial workload group and every requested benchmark seed, run
each sub-seed once and record its digest.  ``run.py`` compares every
rep against these digests for the seeds they cover; the sharded fabric
workload is checked against its serial twin's group.

Usage (from the repository root)::

    python3 perfbench/make_reference.py --seeds 0-31 --jobs 2

Regenerate only when a change is meant to alter simulation results, and
say so in the change: a digest mismatch is how the benchmark catches a
speed-up that silently changed the model.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import (  # noqa: E402
    WORKLOADS,
    canonical_digest,
    reference_params,
    sub_seed,
)

REFERENCE = HERE / "reference.json"


def _digests(task: tuple[str, int]) -> tuple[str, int, list[str]]:
    name, seed = task
    workload = WORKLOADS[name]
    out = []
    for k in range(workload.subseeds):
        case = workload.prepare(sub_seed(seed, k))
        out.append(case.finish(case.run()).digest)
    return name, seed, out


def _seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=_seed_range, default=_seed_range("0-31"),
                   help="inclusive benchmark seed range, e.g. 0-31")
    p.add_argument("--jobs", type=int, default=1)
    args = p.parse_args(argv)
    import numpy

    serial = [w for w in WORKLOADS.values() if not w.workers]
    tasks = [(w.name, seed) for w in serial for seed in args.seeds]
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(args.jobs) as pool:
        results = pool.map(_digests, tasks, chunksize=1)
    groups = {
        w.group: {
            "params_digest": canonical_digest(reference_params(w)),
            "digests": {},
        }
        for w in serial
    }
    for name, seed, digests in results:
        groups[WORKLOADS[name].group]["digests"][str(seed)] = digests
    REFERENCE.write_text(json.dumps({
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "groups": groups,
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(results)} seed entries to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
