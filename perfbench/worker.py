"""One benchmark worker: set up a workload, run its passes, check every output.

``run.py`` starts this script and times it from process start until it
prints ``READY`` (the set-up time).  With ``--probe`` the worker stops there.
Otherwise it runs the workload and prints one JSON line of raw results.
Everything runs in this one process, with no threads; the ``cli`` workload
keeps one ``lbxmod`` subprocess outstanding at a time (a closed loop).

A timed run samples the machine's speed while each job runs
(``speed.SpeedProbe``) and reports every job's time with the speed around
it.  For the ``cli`` workload the probe runs inside each CLI process
(``probed_cli.py``).  The set-up is sampled the same way, from the start of
``main`` until ``READY``, and the ``READY`` line carries the probe's report.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
IMPORT_PROBES = 5


class Runner:
    """Runs jobs on cold caches and checks each output outside the timing."""

    def __init__(self, wl, goldens: dict, jobs_in_subprocess: bool) -> None:
        self.goldens = goldens
        self.jobs_in_subprocess = jobs_in_subprocess
        self.caches = wl.caches()
        self.summaries: dict[str, dict] = {}
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.cache_hits = 0
        self.cache_calls = 0
        self.serialize_bytes = 0

    def _cold(self) -> None:
        for c in self.caches:
            c.cache_clear()
        gc.collect()

    def _cache_stats(self) -> None:
        for c in self.caches:
            info = getattr(c, "cache_info", None)
            if info is not None:
                i = info()
                self.cache_hits += i.hits
                self.cache_calls += i.hits + i.misses

    def run_job(self, job, tracer=None, probe: speed.SpeedProbe | None = None):
        """Returns (seconds, result, error text); with a probe, the seconds
        exclude the time its units took within the job.  A job in a
        subprocess samples itself, so the probe's timer stays off here."""
        self._cold()
        self.attempted += 1
        res, err = None, None
        timer = probe is not None and not self.jobs_in_subprocess
        t0 = time.perf_counter()
        if timer:
            probe.start()
        try:
            res = job.run() if tracer is None else tracer.call("bench.job", job.run)
        except Exception as exc:  # a failing job is counted, and the pass goes on
            err = f"{job.id}: {type(exc).__name__}: {exc}"
        finally:
            if timer:
                probe.stop()
        dt = time.perf_counter() - t0 if tracer is None else tracer.last_s
        if timer:
            dt -= probe.spent
        self._cache_stats()
        if tracer is not None:
            tracer.end_job()
        return dt, res, err

    def check(self, job, res, err) -> None:
        problems = [err] if err else self._problems(job, res)
        self.failed += bool(problems)
        self.failures.extend(problems)

    def _problems(self, job, res) -> list[str]:
        s = job.summarize(res)
        self.serialize_bytes += s.get("serialize_bytes", 0)
        problems = []
        if job.golden:
            want = self.goldens.get(job.id)
            if want != s["digest"]:
                problems.append(f"{job.id}: output differs from the golden digest")
        if job.twin is not None:
            twin = self.summaries.get(job.twin)
            if twin is None:
                problems.append(f"{job.id}: standard-basis twin {job.twin} has no result")
            elif twin["invariants"] != s["invariants"]:
                problems.append(f"{job.id}: invariants {s['invariants']} differ from "
                                f"the standard basis {twin['invariants']}")
        if job.id in self.first:
            if self.first[job.id] != s["digest"]:
                problems.append(f"{job.id}: output differs from the first pass")
        elif job.validate is not None:
            problems += [f"{job.id}: {p}" for p in job.validate(res)]
        for key, val in s["invariants"].items():
            if val is False:
                problems.append(f"{job.id}: {key} is false")
        self.summaries[job.id] = s
        self.first.setdefault(job.id, s["digest"])
        return problems

    def timed_pass(self, jobs, probe: speed.SpeedProbe | None = None) -> tuple[list[float], list[float]]:
        """Runs jobs once; returns their times and, with a probe, the
        machine's speed during each."""
        times, speeds = [], []
        for job in jobs:
            if probe is not None:
                probe.before()
            dt, res, err = self.run_job(job, probe=probe)
            if probe is not None:
                units, spent = [], 0.0
                if self.jobs_in_subprocess and res is not None:
                    units, spent = speed.parse_report(res[2])
                    res = res[:2]
                dt -= spent
                speeds.append(probe.after(units))
            times.append(dt)
            self.check(job, res, err)
        return times, speeds


def import_probe_s(env: dict) -> float:
    """Median cost of ``import lbxmod.cli`` above bare interpreter start."""
    def start(code: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True, timeout=60)
        return time.perf_counter() - t0

    bare, full = [], []
    for _ in range(IMPORT_PROBES):
        bare.append(start("pass"))
        full.append(start("import lbxmod.cli"))
    bare.sort()
    full.sort()
    return full[IMPORT_PROBES // 2] - bare[IMPORT_PROBES // 2]


def traced_run(args, wl, jobs, runner: Runner) -> dict:
    """A traced pass between two plain ones; returns the per-layer metrics.

    The overhead ratio divides the traced pass by the mean of the plain
    passes around it, so neither process warm-up nor drift of the machine
    is charged to the tracer.  CLI jobs run in-process here
    (``lbxmod.cli.main``), so that the spans see inside them.
    """
    import tracer as tr

    plain, _ = runner.timed_pass(jobs)
    t = tr.Tracer(wl.lbxmod_modules(), [wl])
    runner.cache_hits = runner.cache_calls = runner.serialize_bytes = 0
    t.install()
    t.span_attr(wl, "json_text", "serialize.json_text")
    t.span_attr(wl, "json_parse", "serialize.json_parse")
    try:
        done = [(job, *runner.run_job(job, t)) for job in jobs]
    finally:
        t.uninstall()
    for job, _dt, res, err in done:
        runner.check(job, res, err)
    traced = [dt for _job, dt, _res, _err in done]
    del done
    hits, calls_cached, ser_bytes = runner.cache_hits, runner.cache_calls, runner.serialize_bytes
    plain_after, _ = runner.timed_pass(jobs)

    self_t, calls, jobs_total = t.self_times()

    def layer_self(prefix: str, exclude: tuple[str, ...] = ()) -> float:
        return sum(v for k, v in self_t.items() if k.startswith(prefix) and k not in exclude)

    def calls_of(*labels: str) -> int:
        return sum(calls.get(k, 0) for k in labels)

    acts = ("action.ActionData.act_left", "action.ActionData.act_right")
    per = {
        "bider.self_s": layer_self("bider."),
        "bider.cache_hit_ratio": hits / calls_cached if calls_cached else 0.0,
        "bider.cache_calls": calls_cached,
        "bider.solved_dim": t.solved_dim,
        "linalg.rref_s": self_t.get("linalg.rref", 0.0),
        "linalg.rref_calls": calls_of("linalg.rref"),
        "linalg.rref_cells": t.rref["cells"],
        "linalg.rref_density": t.rref["nonzeros"] / t.rref["cells"] if t.rref["cells"] else 0.0,
        "linalg.rref_rank_ratio": t.rref["rank"] / t.rref["rows"] if t.rref["rows"] else 0.0,
        "linalg.subspace_s": layer_self("linalg.Subspace."),
        "linalg.matrix_s": layer_self("linalg.Matrix."),
        "linalg.other_s": layer_self("linalg.", ("linalg.rref",)) - layer_self("linalg.Subspace.")
        - layer_self("linalg.Matrix."),
        "linalg.vector_ops": t.counts["vector_ops"][0],
        "fields.q_ops": t.counts["q_ops"][0],
        "fields.fp_ops": t.counts["fp_ops"][0],
        "algebra.bracket_calls": calls_of("algebra.LeibnizAlgebra.bracket"),
        "algebra.bracket_s": self_t.get("algebra.LeibnizAlgebra.bracket", 0.0),
        "algebra.other_s": layer_self("algebra.", ("algebra.LeibnizAlgebra.bracket",)),
        "action.act_calls": calls_of(*acts),
        "action.act_s": sum(self_t.get(k, 0.0) for k in acts),
        "action.other_s": layer_self("action.", acts),
        "xaction.self_s": layer_self("xaction."),
        "xmod.self_s": layer_self("xmod."),
        "serialize.self_s": layer_self("serialize."),
        "serialize.bytes": ser_bytes,
        "catalog.build_s": layer_self("catalog."),
        "cli.main_s": layer_self("cli."),
        "bench.self_s": self_t.get("bench.job", 0.0),
        "trace.bookkeeping_s": layer_self("trace."),
    }
    per.update({f"stage.{k}_s": v for k, v in t.stage_times().items()})
    attributed = sum(v for k, v in per.items() if k.endswith("_s") and not k.startswith("stage."))
    per["trace.pass_s"] = sum(traced)
    per["trace.self_sum_ratio"] = attributed / jobs_total if jobs_total else 0.0
    plain_s = (sum(plain) + sum(plain_after)) / 2
    per["trace.overhead_ratio"] = sum(traced) / plain_s if plain_s else 0.0
    per["trace.spans"] = len(t.spans)
    per["cli.import_s"] = import_probe_s(wl.cli_env()) if args.workload == "cli" else 0.0
    OUT.mkdir(exist_ok=True)
    t.dump(OUT / f"trace-{args.workload}.json.gz")
    return {"passes": 2, "job_s": plain + plain_after, "per_layer": per}


def timed_run(args, jobs, runner: Runner, probe: speed.SpeedProbe) -> dict:
    """Whole passes until ``--seconds`` would be exceeded, with every job's speed."""
    passes, job_s, speeds = 0, [], []
    start = time.perf_counter()
    while True:
        times, around = runner.timed_pass(jobs, probe)
        passes += 1
        job_s += times
        speeds += around
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / passes > args.seconds:
            break
    return {"passes": passes, "job_s": job_s, "speeds": speeds}


def peak_rss_mb(children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def main(argv=None) -> int:
    probe = speed.SpeedProbe()
    probe.start()
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help="stop once set-up is done")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl

    goldens = wl.load_goldens()
    jobs = wl.build(args.workload, args.seed, goldens, in_process_cli=bool(args.trace),
                    probed_cli=not args.trace)
    probe.stop()
    if not probe.units:
        probe.sample()
    print(f"READY {probe.report()}", flush=True)
    if args.probe:
        return 0

    runner = Runner(wl, goldens, jobs_in_subprocess=args.workload == "cli" and not args.trace)
    out = traced_run(args, wl, jobs, runner) if args.trace else timed_run(args, jobs, runner, probe)
    out.update({
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures[:20],
        "peak_rss_mb": peak_rss_mb(children=args.workload == "cli"),
        "notes": [] if runner.caches else
        ["no lbxmod function exposes cache_clear: bider.cache_hit_ratio is absent (reported as 0)"],
    })
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
