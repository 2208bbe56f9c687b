#!/usr/bin/env python3
"""Benchmark of the lbxmod engine: cold actor solves, structure checks and the CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload actor-q --seed 1 --seconds 30 --trace 0

Workloads (``BENCHMARK.json`` says why each one exists):

* ``actor-q``   cold ``actor``, ``canonical_morphism``, ``center`` and
  ``outer_xmod`` over Q, for identity crossed modules on NF_2, NF_3, A_2
  and sl2 and for [NF_n, NF_n] included into NF_n (n = 3, 4), each once in
  its standard basis and, except A_2, once in a seeded dense basis;
* ``actor-fp``  the same jobs over F2 and F3;
* ``structure`` validators, center, conditions, quotient and semidirect
  product, each with a serialize round trip, over Q and F3;
* ``cli``       every (command, catalog entry) pair the CLI accepts, one
  ``lbxmod`` subprocess at a time, each pair on a seeded field (balanced
  over q, f2 and f3 per catalog entry).

With ``--trace 0`` the worker runs whole passes over the workload's job list
until ``--seconds`` would be exceeded (at least one), every job on cold
caches, and this script reports the end-to-end metrics.  The job times are
scaled to a fixed reference speed of the machine (see ``speed.py``),
because the shared host's own speed changes more than the bounds allow; the
wall times are in the run record.  Of the scaled times, ``pass_ref_s`` is
the sum over the jobs of each job's median, the time of a pass at every
job's median; ``job_p50_ref_ms`` the median of all samples; and
``job_tail10_ref_ms`` the mean of the job medians over the slowest tenth of
the jobs.  A tail mean, not a 90th percentile: in the ``cli`` job mix the
90th percentile falls on the gap between the heavy sl2 jobs and the rest,
where it is set by the one slowest light job and moves with its noise.
With ``--trace 1`` it runs one plain pass and one traced pass and reports
the per-layer metrics; spans go to ``perfbench/out/trace-<workload>.json.gz``.  Every
output is checked (see ``workloads.py``); failures count in ``failed``.

Set-up time is measured from starting a worker process until it reports its
first job ready, less the time the worker's speed probe took, scaled to the
reference speed like the job times; the worker samples its speed while it
sets up and reports it on its ``READY`` line.  It is taken ``SETUP_PROBES`` times in separate processes
plus once for the measuring worker, and the median is reported; the wall
times are in the run record.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric with its unit and a run record (seed, nproc, Python,
commit).  The exit code is 0 with a result, 2 when the checkout lacks the
sources or the goldens, and 1 when a worker fails or runs out of time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("actor-q", "actor-fp", "structure", "cli")
SETUP_PROBES = 6
TIME_LIMIT_S = 170.0


class WorkerError(RuntimeError):
    pass


def _worker(args, probe: bool, deadline: float) -> tuple[float, float, str]:
    """Start a worker; returns its set-up time, the machine's speed during
    the set-up and everything the worker printed after READY."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if probe:
        cmd.append("--probe")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else ""
        setup = time.perf_counter() - t0
        if not line.startswith("READY "):
            raise WorkerError("worker did not get ready")
        units, spent = speed.parse_report(speed.REPORT_TAG + line[5:])
        setup -= spent
        rest, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except (subprocess.TimeoutExpired, WorkerError):
        proc.kill()
        proc.wait()
        raise WorkerError("worker did not finish in time") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return setup, speed.speed_of(units), rest


def _git_commit() -> str | None:
    """HEAD of the checkout, read without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lbxmod").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _tail_jobs(n: int) -> int:
    """How many jobs make the slowest tenth of n."""
    return math.ceil(n / 10)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    needed = [ROOT / "src" / "lbxmod" / "__init__.py", HERE / "goldens.json", ROOT / "BENCHMARK.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: missing {', '.join(missing)}; run from the root of a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        setups = [_worker(args, True, deadline)[:2] for _ in range(SETUP_PROBES)]
        setup, factor, rest = _worker(args, False, deadline)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append((setup, factor))
    raw = json.loads(rest.strip().splitlines()[-1])

    job_s = raw["job_s"]
    per_pass = len(job_s) // raw["passes"]
    if args.trace:
        values = dict(raw["per_layer"])
    else:
        # Scale each job to the reference speed, by the speed measured around it.
        job_s = [t * v for t, v in zip(job_s, raw["speeds"])]
    job_medians = sorted(statistics.median(job_s[i::per_pass]) for i in range(per_pass))
    tail = job_medians[-_tail_jobs(per_pass):]
    if not args.trace:
        values = {
            "pass_ref_s": sum(job_medians),
            "job_p50_ref_ms": statistics.median(job_s) * 1e3,
            "job_tail10_ref_ms": statistics.mean(tail) * 1e3,
            "setup_s": statistics.median(t * v for t, v in setups),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
    names = [m["name"] for m in wanted]
    if set(names) != set(values):
        print(f"perfbench: metrics {sorted(set(values) ^ set(names))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1

    wall_p90 = statistics.quantiles(raw["job_s"], n=10, method="inclusive")[8]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "machine": platform.machine(), "commit": _git_commit(), "src_sha256": _src_digest(),
        "passes": raw["passes"], "jobs_per_pass": per_pass,
        "wall_pass_s": statistics.median(sum(raw["job_s"][i:i + per_pass])
                                         for i in range(0, len(job_s), per_pass)),
        "wall_job_p50_ms": statistics.median(raw["job_s"]) * 1e3,
        "wall_job_p90_ms": wall_p90 * 1e3,
        "wall_samples_beyond_p90": sum(1 for t in raw["job_s"] if t > wall_p90),
        "job_samples": len(job_s), "tail_jobs": len(tail),
        "setup_samples_s": [t for t, _v in setups], "setup_speeds": [v for _t, v in setups],
        "fail_ratio": raw["failed"] / raw["attempted"],
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(f"fail_ratio = {record['fail_ratio']} ({raw['failed']} of {raw['attempted']} jobs failed)")
    print(f"unscaled wall times: pass_s = {record['wall_pass_s']} s, "
          f"job_p50_ms = {record['wall_job_p50_ms']} ms, job_p90_ms = {record['wall_job_p90_ms']} ms "
          f"({record['wall_samples_beyond_p90']} samples beyond it)")
    print(f"samples: {len(job_s)} jobs over {raw['passes']} passes, "
          f"{len(tail)} in the slowest tenth, {len(setups)} set-ups")
    for failure in raw["failures"]:
        print(f"failure: {failure}")
    for note in raw["notes"]:
        print(f"note: {note}")
    print("record: " + json.dumps(record))
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "metrics": metrics, "job_s": job_s,
                    "wall_job_s": raw["job_s"], "speeds": raw.get("speeds"),
                    "failures": raw["failures"]}, indent=1) + "\n")
    print(json.dumps({"correct": raw["failed"] == 0, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
