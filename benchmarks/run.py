"""Pipeline benchmark for dclex.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout; the program is imported from its `src/`.
NAME is one of WORKLOADS, or `all` to run every workload in turn.

--trace 0 measures end to end. The workload's inputs are generated from the
seed, then `dclex run all` runs again and again in a fresh child process,
with tracing off, for about S seconds. Each run is timed from
outside, its rusage is read with os.wait4, and its outputs go through the
correctness gate (gate.py). Set-up time is the median of several fresh
interpreters that import `dclex.cli` and validate the workload config. A
host-speed probe (probe.py) runs between pipeline runs, and every time is
reported at the host's reference speed.

--trace 1 gives the per-layer numbers. It runs each stage alone in its own
process for per-stage peak RSS, then alternates untraced and traced runs
(tracer.py), all within about S seconds; the median difference between the
wall times of back-to-back pairs is the tracing overhead. Spans go to
.bench_work/traces/.

The closing line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it list each metric by
name with its unit. The exit code is 0 only when every run passed the gate.
Workloads, metrics and the seed baseline are described in METRICS.md.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import corpusgen
import gate
import probe
import tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
# One invocation must end within 180 s; children still running past this
# budget are killed and their runs fail.
SESSION_BUDGET_S = 165
SETUP_PER_LAP = 3
PLANTED_PAIRS = 20_000

# End-to-end metric units; BENCHMARK.json gives directions and bounds.
END_TO_END = {
    "run_s": "s",
    "pairs_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "out_mb": "MB",
    "avep": "ratio",
    "pair_recall": "ratio",
    "ok_rate": "ratio",
}


@dataclass(frozen=True)
class Workload:
    name: str
    pairs: int
    make: Callable[[Path, int], tuple[Path, gate.Expect]]


def _planted(root: Path, seed: int) -> tuple[Path, gate.Expect]:
    spec = importlib.util.spec_from_file_location("planted", ROOT / "tests" / "planted.py")
    planted = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(planted)
    # 100 `blik tak` occurrences, 90 of them with `zonk`; `gorp nee` sits one
    # below min_freq. 149 source connectives get fused.
    cfg = planted.generate(
        root, pairs=PLANTED_PAIRS, dc_count=100, cooccur_rate=0.9, thresh_count=49,
        seed=seed, min_freq=50, iterations=5, threads=1,
    )
    expect = gate.Expect(
        fr_counts={"blik tak": 100, "gorp nee": 49},
        en_count=149,
        gold=frozenset({("blik tak", "GOLD_A")}),
        relations=frozenset({"REL_A", "REL_B"}),
        relation_map={"REL_A": "GOLD_A"},
        min_freq=50,
        planted=("blik tak", "REL_A", Fraction(9, 10)),
    )
    return cfg, expect


def _generated(spec: corpusgen.CorpusSpec, config: dict) -> Callable:
    def make(root: Path, seed: int) -> tuple[Path, gate.Expect]:
        cfg, truth = corpusgen.generate(root, spec, seed, config)
        expect = gate.Expect(
            fr_counts=truth.fr_counts,
            en_count=truth.en_count,
            gold=truth.gold,
            relations=frozenset(truth.relation_map),
            relation_map=truth.relation_map,
            min_freq=config["min_freq"],
        )
        return cfg, expect

    return make


ZIPF = corpusgen.CorpusSpec(
    pairs=600, vocab=20_000, min_len=12, max_len=30,
    connectives=30, relations=8, dc_rate=0.6,
)
DENSE = corpusgen.CorpusSpec(
    pairs=2_500, vocab=2_000, min_len=4, max_len=9,
    connectives=100, relations=12, dc_rate=0.8, nested_share=1 / 3,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("planted-m1", PLANTED_PAIRS, _planted),
        Workload(
            "zipf-long-t2",
            ZIPF.pairs,
            _generated(ZIPF, {"model": "model1", "iterations": 3, "threads": 2,
                              "min_freq": 5, "seed": 11}),
        ),
        Workload(
            "dense-dc-m2",
            DENSE.pairs,
            _generated(DENSE, {"model": "model2", "iterations": 2, "threads": 1,
                               "min_freq": 5, "evidence_min_prob": 0, "seed": 11}),
        ),
    )
}


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def _env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(argv: list[str], log: Path, timeout: float) -> Child:
    """Run one child to completion, or kill it after `timeout` seconds; wall
    time from outside, rusage from wait4."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, env=_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Session:
    """Runs of one workload and seed: generated inputs, gate, digests."""

    def __init__(self, workload: Workload, seed: int, trace: int) -> None:
        self.workload = workload
        self.dir = WORK / f"{workload.name}-seed{seed}-trace{trace}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.cfg, self.expect = workload.make(self.dir / "data", seed)
        self.deadline = time.monotonic() + SESSION_BUDGET_S
        self.attempted = self.failed = 0
        self.digest: str | None = None
        self.verdict: gate.Verdict | None = None
        self.metrics: dict[str, float] = {}
        self.units: dict[str, str] = {}
        self.summary = ""

    def gated(self, out: Path, child: Child) -> bool:
        """Gate one finished run and count it; failures are reported."""
        self.attempted += 1
        verdict = gate.check(out, child.code, self.expect)
        problems = list(verdict.problems)
        if verdict.digest and self.digest is None:
            self.digest = verdict.digest
        elif verdict.digest and verdict.digest != self.digest:
            problems.append("lexicon/eval report differ from the first run of this seed")
        if problems:
            self.failed += 1
            print(f"FAIL {self.workload.name} {out}: " + "; ".join(problems), file=sys.stderr)
            return False
        self.verdict = verdict
        return True

    def child(self, argv: list[str], log: str) -> Child:
        return run_child(argv, self.dir / log, max(1.0, self.deadline - time.monotonic()))

    def pipeline(self, tag: str, *prefix: str) -> tuple[Path, Child]:
        out = self.dir / f"out-{tag}"
        argv = [*prefix, "run", "all", "--config", str(self.cfg), "--output", str(out)]
        return out, self.child(argv, f"{tag}.log")

    def setup_probe(self) -> float | None:
        code = "import sys; from dclex.cli import validate_config; validate_config(sys.argv[1])"
        child = self.child(["-c", code, str(self.cfg)], "setup.log")
        return child.wall_s if child.code == 0 else None


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _more(start: float, seconds: float, laps: list[float]) -> bool:
    """Start another lap unless it would likely end past the time budget."""
    return not laps or time.perf_counter() - start + _median(laps) / 2 < seconds


def measure(workload: Workload, seed: int, seconds: float) -> Session:
    """End-to-end metrics with tracing off.

    Each lap is SETUP_PER_LAP set-up probes and one pipeline run. A host-speed
    probe runs before the first lap and after every lap, and the lap's times
    are compared with the mean of the two probes around it (see probe.py)."""
    s = Session(workload, seed, 0)
    s.setup_probe()  # compiles bytecode; not counted
    speed = probe.Probe()
    speed()  # warms the probe's tables; not counted
    levels = [speed()]
    setup: list[list[float | None]] = []
    runs: list[tuple[Child, int] | None] = []
    laps: list[float] = []
    start = time.perf_counter()
    while _more(start, seconds, laps):
        lap_start = time.perf_counter()
        setup.append([s.setup_probe() for _ in range(SETUP_PER_LAP)])
        out, child = s.pipeline(f"run{s.attempted}", "-m", "dclex")
        size = _dir_bytes(out) if out.is_dir() else 0
        runs.append((child, size) if s.gated(out, child) else None)
        if runs[-1]:
            shutil.rmtree(out)
        levels.append(speed())
        laps.append(time.perf_counter() - lap_start)

    # Unscaled times, for a reader who wants to check the scaling.
    (s.dir / "laps.json").write_text(json.dumps({
        "probe_wall_cpu_s": levels,
        "run_wall_cpu_s": [[run[0].wall_s, run[0].cpu_s] if run else None for run in runs],
        "setup_wall_s": setup,
    }), encoding="utf-8")
    # Host speed around each lap, as (wall, CPU) seconds per probe pass.
    around = [((a[0] + b[0]) / 2, (a[1] + b[1]) / 2) for a, b in zip(levels, levels[1:])]
    good = [(run[0], run[1], lap) for run, lap in zip(runs, around) if run]
    setup_ok = [t * probe.REFERENCE_S / lap[0] for times, lap in zip(setup, around)
                for t in times if t is not None]
    if len(setup_ok) < sum(map(len, setup)):
        print(f"FAIL {workload.name}: config validation failed, see {s.dir / 'setup.log'}", file=sys.stderr)

    def scaled(part: int) -> float:
        # Ratio of sums, so that every second of the invocation weighs the same.
        runs_s = sum((child.wall_s, child.cpu_s)[part] for child, _, _ in good)
        probes_s = sum(lap[part] for _, _, lap in good)
        return probe.REFERENCE_S * runs_s / probes_s if good else 0.0

    run_s = scaled(0)
    s.metrics = {
        "run_s": run_s,
        "pairs_per_s": workload.pairs / run_s if run_s else 0.0,
        "cpu_s": scaled(1),
        "peak_rss_mb": _median([child.rss_mb for child, _, _ in good]),
        "setup_s": _median(setup_ok),
        "out_mb": _median([size / 1e6 for _, size, _ in good]),
        "avep": s.verdict.avep if s.verdict else 0.0,
        "pair_recall": s.verdict.pair_recall if s.verdict else 0.0,
        "ok_rate": (s.attempted - s.failed) / s.attempted,
    }
    s.units = END_TO_END
    raw = sorted(child.wall_s for child, _, _ in good)
    s.summary = (
        f"{workload.name} seed={seed}: {s.attempted} runs, {s.failed} failed "
        f"(fail_rate {s.failed / s.attempted:.3f}); unscaled run_s over n={len(raw)}: "
        + (f"median {_median(raw):.3f}, min {raw[0]:.3f}, max {raw[-1]:.3f}" if raw else "none")
        + f"; probe pass median {_median([w for w, _ in levels]):.4f} s "
        f"(reference {probe.REFERENCE_S} s); a tail percentile needs at least 21 runs"
    )
    return s


def _manifest_seconds(out: Path) -> dict[str, float]:
    stages = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["stages"]
    return {name: info["seconds"] for name, info in stages.items()}


def trace(workload: Workload, seed: int, seconds: float) -> Session:
    """Per-layer metrics from traced runs, per-stage RSS and trace overhead."""
    s = Session(workload, seed, 1)
    metrics: dict[str, float] = {}
    start = time.perf_counter()

    out = s.dir / "out-stages"
    stage_ok = True
    for stage in gate.STAGES:
        argv = ["-m", "dclex", stage, "--config", str(s.cfg), "--output", str(out)]
        child = s.child(argv, f"stage-{stage}.log")
        metrics[f"stage.{stage}.rss_mb"] = child.rss_mb
        stage_ok = stage_ok and child.code == 0
    if s.gated(out, Child(0 if stage_ok else 1, 0.0, 0.0, 0.0)):
        shutil.rmtree(out)

    plain: list[Child] = []
    traced: list[tuple[Child, dict, dict]] = []
    # Traced minus untraced wall time of back-to-back runs: pairing cancels
    # most of the host's changes in speed, which last seconds or longer.
    overhead: list[float] = []
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    spans_path = traces / f"{workload.name}-seed{seed}.json"
    walls: list[float] = []
    while _more(start, seconds, walls):
        pair_start = time.perf_counter()
        out, child = s.pipeline(f"plain{len(plain)}", "-m", "dclex")
        plain_ok = s.gated(out, child)
        if plain_ok:
            plain.append(child)
            shutil.rmtree(out)
        spans = s.dir / f"spans{len(traced)}.json"
        out, child = s.pipeline(f"traced{len(traced)}", str(ROOT / "benchmarks" / "tracer.py"), str(spans))
        if not s.gated(out, child) or not spans.is_file():
            break
        doc = json.loads(spans.read_text(encoding="utf-8"))
        traced.append((child, doc, _manifest_seconds(out)))
        if plain_ok:
            overhead.append(child.wall_s - plain[-1].wall_s)
        if len(traced) == 1:
            shutil.copyfile(spans, spans_path)
            forms = [tuple(form.split()) for form in s.expect.fr_counts]
            metrics.update(tracer.alignment_rates(out, forms, s.expect.relations))
        shutil.rmtree(out)
        walls.append(time.perf_counter() - pair_start)

    # Stage times come from the span around `run_stage`, the interval the
    # manifest times: the manifest rounds to milliseconds, which would make
    # the shortest stages read a constant 0.
    for name in gate.STAGES:
        metrics[f"stage.{name}_s"] = _median([
            sum(sp["end"] - sp["start"] for sp in doc["spans"] if sp["name"] == f"stage.{name}")
            for _, doc, _ in traced
        ])
    if traced:
        layers = [tracer.layer_metrics(doc) for _, doc, _ in traced]
        for name in layers[0]:
            metrics[name] = _median([layer[name] for layer in layers])
        unaccounted = []
        for _, doc, manifest in traced:
            align = [sp["id"] for sp in doc["spans"] if sp["name"] == "stage.align"]
            covered = sum(
                sp["end"] - sp["start"] for sp in doc["spans"]
                if sp["parent"] in align and sp["name"].startswith("alignment.")
            ) + sum(
                e["seconds"] for e in doc["each"]
                if e["parent"] in align and e["name"].startswith("alignment.")
            )
            unaccounted.append(manifest.get("align", 0.0) - covered)
        metrics["alignment.unaccounted_s"] = _median(unaccounted)
        metrics["trace_overhead_s"] = _median(overhead)
    s.metrics = metrics
    s.units = {name: _layer_unit(name) for name in metrics}
    s.summary = (
        f"{workload.name} seed={seed} traced: {len(traced)} traced and {len(plain)} untraced "
        f"runs, {s.failed} of {s.attempted} failed; spans in {spans_path.relative_to(ROOT)}"
    )
    return s


def _layer_unit(name: str) -> str:
    if name.endswith("rss_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_rate", "_yield", ".efficiency")):
        return "ratio"
    return "count"


def _result(sessions: list[Session], prefix: bool) -> dict:
    metrics = {}
    for s in sessions:
        for name, value in s.metrics.items():
            key = f"{s.workload.name}.{name}" if prefix else name
            metrics[key] = {"value": value, "unit": s.units[name]}
    attempted = sum(s.attempted for s in sessions)
    failed = sum(s.failed for s in sessions)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    needed = [ROOT / "src" / "dclex" / "cli.py", ROOT / "tests" / "planted.py"]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        print(f"error: not a dclex source checkout, missing {', '.join(absent)}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    sessions = []
    for name in names:
        run = trace if args.trace else measure
        session = run(WORKLOADS[name], args.seed, args.seconds)
        sessions.append(session)
        print(session.summary)
        for metric, value in session.metrics.items():
            print(f"  {metric:<32} {value:>14.6g} {session.units[metric]}")
    result = _result(sessions, prefix=len(sessions) > 1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
