"""Runs ``python -m lbxmod.cli ARGS`` with a ``speed.SpeedProbe`` sampling
the machine inside the CLI's own process.

    python perfbench/probed_cli.py ARGS...

Standard output and the exit code are the CLI's.  At exit, one line
``speed-probe {"units": [...], "spent": s}`` goes to standard error, after
anything the CLI wrote there.
"""

import atexit
import runpy
import sys

from speed import REPORT_TAG, SpeedProbe

probe = SpeedProbe()
probe.start()


def _report() -> None:
    probe.stop()
    if not probe.units:
        probe.sample()
    sys.stderr.write(f"{REPORT_TAG} {probe.report()}\n")


atexit.register(_report)
runpy.run_module("lbxmod.cli", run_name="__main__", alter_sys=True)
