"""Host speed probe: a fixed pure-Python kernel timed next to each run.

The benchmark's host is shared, and other tenants change how fast the same
instructions run, by up to 2x, in phases from a second to minutes long. Wall
and CPU time of a pipeline run move with it. The probe runs a fixed amount of
work shaped like the pipeline's own hot loop (an IBM Model 1 E-step over
nested dicts keyed by word strings), on a corpus that depends on no seed and
on no code under `src/`. The time it takes says how fast the host was while
it ran, and no change to the program can move it.

`run.py` times a probe before the first pipeline run and after each one, and
reports run times as REFERENCE_S x (summed run times) / (summed mean time of
the two probes around each run): seconds at the host speed at which one
pass of the kernel takes REFERENCE_S.
"""

from __future__ import annotations

import itertools
import math
import random
import time

# A typical pass time, wall or CPU, on the seed-baseline host (2-vCPU Xeon
# at 2.1 GHz, Python 3.11.7). It only sets the scale of the reported times.
REFERENCE_S = 0.45

# About 1 s per probe. The host's speed changes within seconds, so a probe
# says most about the seconds next to it: short probes around short runs
# track the host best. Against 3 s probes around runs twice as long, this
# halved the spread of the scaled times across seeds.
PASSES = 2

_PAIRS = 1_600
_VOCAB = 20_000


class Probe:
    """Fixed E-step workload; call it to time one probe."""

    def __init__(self) -> None:
        rng = random.Random(20170629)
        cum = list(itertools.accumulate(1.0 / (k + 1) for k in range(_VOCAB)))
        self.pairs = []
        for _ in range(_PAIRS):
            ids = rng.choices(range(_VOCAB), cum_weights=cum, k=rng.randint(12, 30))
            src = ["NULL"] + [f"e{k}" for k in ids]
            tgt = [f"f{k}" for k in ids if rng.random() > 0.05] or [f"f{ids[0]}"]
            rng.shuffle(tgt)
            self.pairs.append((src, tgt))
        cooc: dict[str, set[str]] = {}
        for src, tgt in self.pairs:
            for e in src:
                cooc.setdefault(e, set()).update(tgt)
        self.probs = {e: {f: 1.0 / len(row) for f in sorted(row)} for e, row in cooc.items()}

    def _estep(self) -> float:
        counts: dict[str, dict[str, float]] = {}
        ll = 0.0
        for src, tgt in self.pairs:
            rows = [self.probs[e] for e in src]
            for f in tgt:
                z = 0.0
                for row in rows:
                    z += row[f]
                ll += math.log(z) - math.log(len(src))
                for e, row in zip(src, rows):
                    out = counts.get(e)
                    if out is None:
                        out = counts[e] = {}
                    out[f] = out.get(f, 0.0) + row[f] / z
        return ll

    def __call__(self) -> tuple[float, float]:
        """Run PASSES passes of the kernel; return (wall, CPU) seconds per pass."""
        wall, cpu = time.perf_counter(), time.process_time()
        for _ in range(PASSES):
            self._estep()
        return (time.perf_counter() - wall) / PASSES, (time.process_time() - cpu) / PASSES
