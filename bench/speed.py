"""The reference loop that factors the host's CPU speed out of the
benchmark's times.

On a shared host a vCPU's speed swings by up to 2x, within seconds and
for minutes at a time, as other tenants' load comes and goes, and the
two vCPUs of one VM swing apart.  Best-of and median timings over a
run's cycles still moved by 20-35% of the median from seed to seed on
the 2-vCPU VM the benchmark was defined on.

So every timed span is bracketed by samples of a fixed loop of Fraction
arithmetic and dict updates, taken in the same process (so on the same
vCPU, as far as the scheduler allows).  A span of t seconds whose
neighbouring samples took c seconds on average is reported as

    t * (REF_S / c) ** SENSITIVITY

the seconds it would take at the speed at which the loop takes REF_S.
The loop slows more than symf does when the host is busy: its time
swung by 2.2x where the weight-36 Schur expansion's swung by about 1.5x.
SENSITIVITY was fitted on that VM over about 130 cycles of all three
workloads, cold and warm, with loops of this kind: 0.75 gave the
smallest cycle-to-cycle spread of pass times on each (interquartile
range 4-11% of the median, against 10-43% unscaled and 5-17% with an
exponent of 1).
"""

from fractions import Fraction

from spans import clock

# Seconds the loop is taken to run in at the reference speed; it ran in
# 0.55 ms to 1.1 ms on the VM above (Python 3.11).
REF_S = 1e-3
SENSITIVITY = 0.75
_ROUNDS = 150


def sample():
    """Seconds one run of the reference loop takes now."""
    start = clock()
    acc = {}
    for i in range(1, _ROUNDS):
        key = (i % 37, i % 5)
        acc[key] = acc.get(key, 0) + Fraction(i % 13, i % 7 + 1) * 3
    return clock() - start


def scaled(seconds, *samples):
    """`seconds` at the reference speed, judged by the mean of `samples`."""
    return seconds * (REF_S * len(samples) / sum(samples)) ** SENSITIVITY
