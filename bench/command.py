"""`python -m symf ARG...` with a reference-loop sample before and after.

    command.py OUT ARG...

Runs symf's command line in this process as `-m symf` would, with the
same stdout, stderr and exit code, and writes the seconds of its
reference samples (speed.py) to OUT as a JSON list: one that warms the
loop up (the first run in a fresh process is 15-30% slower), one before
the command and one after it.  cli_session times each command as the
wall time of this process less all three samples.
"""

import json
import runpy
import sys

import speed

out, args = sys.argv[1], sys.argv[2:]
samples = [speed.sample(), speed.sample()]
try:
    sys.argv = ["symf"] + args
    runpy.run_module("symf", run_name="__main__", alter_sys=True)
finally:
    samples.append(speed.sample())
    with open(out, "w") as f:
        json.dump(samples, f)
