"""Host speed probe for the koszul-lab benchmark.

On a small shared VM the host's speed drifts by 15-30% over minutes, and
runs a minute apart disagree by as much on the same inputs.  The probe is
a fixed pure-Python polynomial power over Q and GF(101), on dicts, the kind
of work the program does; it is benchmark code, identical for every commit
compared.  Timing it next to each operation tracks the drift: times
reported in "nominal seconds" are wall times scaled by the power ELASTICITY
of NOMINAL_PROBE_S over the probe's local time (see run.py).
"""

import time

from polys import Field, Ring

# The probe's time on a calm 2-core x86 VM (Xeon, 2 GHz) at this writing.
NOMINAL_PROBE_S = 0.0085
# The program slows by less than the probe: over 40 runs on that VM, the log
# of a run's wall time per operation grew by 0.53-0.70 times the log of its
# median probe time, depending on the workload.
ELASTICITY = 0.6

_RINGS = [Ring(Field(p), ("x", "y", "z", "w")) for p in (0, 101)]
_BASES = [R.add(R.add(R.const(1), R.var("x", 2)), R.add(R.var("y"), R.var("w")))
          for R in _RINGS]


def probe():
    """Seconds taken by the fixed probe computation, about 8.5 ms: the same
    polynomial power over Q and over GF(101), the program's two fields."""
    t0 = time.perf_counter()
    for R, base in zip(_RINGS, _BASES):
        R.pow(base, 8)
    return time.perf_counter() - t0



def to_nominal(wall_s, probe_s):
    """Wall seconds measured beside a probe time, in nominal seconds."""
    return wall_s * (NOMINAL_PROBE_S / probe_s) ** ELASTICITY
