#!/usr/bin/env python3
"""Write ``perfbench/goldens.json``: the expected outputs the benchmark checks.

    python3 perfbench/capture_goldens.py

It records the serialize digest of every standard-basis library job of the
``actor-*`` and ``structure`` workloads, and the exit code and stdout digest
of all (command, catalog entry, field) CLI triples over q, f2 and f3.  The
goldens were captured from the commit that introduced the benchmark, before
any optimisation.  Run this again only when an output is meant to change,
and say so where the change is recorded; re-capturing from an optimised
build would let the benchmark accept that build's mistakes.
"""

from __future__ import annotations

import gc
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402
from lbxmod.catalog import CATALOG  # noqa: E402
from lbxmod.cli import _ACCEPTS  # noqa: E402


def main() -> int:
    goldens = {}
    jobs = [j for j in wl.actor_jobs(tuple(wl.FIELDS), seed=0) if j.golden] + wl.structure_jobs()
    caches = wl.caches()
    for job in jobs:
        for c in caches:
            c.cache_clear()
        gc.collect()
        goldens[job.id] = job.summarize(job.run())["digest"]
    env = wl.cli_env()
    pairs = [(cmd, cid) for cmd, kinds in _ACCEPTS.items()
             for cid, entry in CATALOG.items() if entry.kind in kinds]
    for cmd, cid in pairs:
        for tag in wl.FIELDS:
            code, out = wl.run_cli_subprocess(wl.cli_argv(cmd, cid, tag), env)
            goldens[f"cli/{cmd} {cid} {tag}"] = wl._cli_summary((code, out))["digest"]
    with open(wl.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(goldens)} goldens to {wl.GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
