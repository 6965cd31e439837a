"""Traced pipeline run, recorded from outside the package.

Child side: `python3 tracer.py SPANS.json ARGS...` imports dclex, replaces
the module attributes listed in TARGETS with timing wrappers, runs
`dclex.cli.main(ARGS)`, and writes the spans it kept in memory to SPANS.json
when the run ends. Each span has an id, a name, a start, an end and the id
of the span that was open when it began. Functions called once per sentence
pair are not given one span per call; their calls are summed per parent
into an `each` record, which keeps the traced run close to the untraced one.

Parent side: `layer_metrics`, `stage_accounting` and `alignment_rates` turn
a spans file and an output directory into the per-layer numbers.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

import corpusgen

SPAN, EACH, CHUNKS = "span", "each", "chunks"


def _ttable_entries(bound, result):
    table = getattr(result, "lexical", result)
    return {"alignment.ttable_entries": sum(len(row) for row in table.probs.values())}


def _estep_cells(bound, result):
    extra = 1 if bound["use_null"] else 0
    cells = sum((len(src) + extra) * len(tgt) for src, tgt in bound["pairs"])
    return {"alignment.estep_cells": cells * bound["iterations"], **_ttable_entries(bound, result)}


# (module, attribute, span name, kind, count hook). A CHUNKS target with no
# span name only feeds the parallel-efficiency counters; its time stays with
# the layer that called it.
TARGETS = (
    ("cli", "run_stage", "stage", SPAN, None),
    ("corpus", "load_parallel_corpus", "corpus.load", SPAN, None),
    ("corpus", "load_token_corpus", "corpus.load", SPAN, None),
    ("corpus", "read_frequency_table", "corpus.load", SPAN, None),
    ("corpus", "count_occurrences", "corpus.count", SPAN,
     lambda b, r: {"corpus.matches": sum(r.entries.values())}),
    ("corpus", "write_token_file", "corpus.write", SPAN, None),
    ("corpus", "write_frequency_table", "corpus.write", SPAN, None),
    ("corpus", "process_chunks", None, CHUNKS, None),
    ("inventory", "load_connective_inventory", "inventory.load", SPAN, None),
    ("inventory", "load_gold_lexicon", "inventory.load", SPAN, None),
    ("inventory", "load_relation_map", "inventory.load", SPAN, None),
    ("inventory", "load_relation_inventory", "inventory.load", SPAN, None),
    ("tagging", "heuristic_tag", "tagging.tag", SPAN, lambda b, r: {"corpus.matches": len(r)}),
    ("tagging", "load_annotations", "tagging.tag", SPAN, None),
    ("tagging", "fuse_corpus", "tagging.fuse", SPAN, None),
    ("tagging", "write_annotations", "tagging.write", SPAN, None),
    ("tagging", "write_fused_corpus", "tagging.write", SPAN, None),
    ("tagging", "process_chunks", None, CHUNKS, None),
    ("alignment", "train_model1", "alignment.train", SPAN, _estep_cells),
    ("alignment", "train_model2", "alignment.train", SPAN, _estep_cells),
    ("alignment", "process_chunks", "alignment.estep", CHUNKS, None),
    ("cli", "process_chunks", "alignment.viterbi", CHUNKS, None),
    ("alignment", "viterbi_align_model2", "alignment.viterbi", EACH, None),
    ("alignment", "transpose", "alignment.symmetrize", EACH, None),
    ("alignment", "symmetrize", "alignment.symmetrize", EACH, None),
    ("alignment", "write_translation_table", "alignment.write", SPAN, None),
    ("alignment", "write_alignments", "alignment.write", SPAN, None),
    ("alignment", "read_alignments", "alignment.read", SPAN, None),
    ("phrasetable", "build_phrase_table", "phrasetable.build", SPAN,
     lambda b, r: {"phrasetable.pairs_extracted": sum(e.count for e in r)}),
    ("phrasetable", "filter_dc_entries", "phrasetable.filter", SPAN,
     lambda b, r: {"phrasetable.dc_count": sum(rec.count for rec in r)}),
    ("phrasetable", "write_phrase_table", "phrasetable.write", SPAN, None),
    ("phrasetable", "write_dc_records", "phrasetable.write", SPAN, None),
    ("phrasetable", "read_dc_records", "phrasetable.read", SPAN, None),
    ("phrasetable", "process_chunks", None, CHUNKS, None),
    ("lexicon", "build_lexicon", "lexicon.build", SPAN,
     lambda b, r: {"lexicon.entries": len(r.entries)}),
    ("lexicon", "write_ranked_lexicon", "lexicon.write", SPAN, None),
    ("lexicon", "read_ranked_lexicon", "lexicon.read", SPAN, None),
    ("lexicon", "sample_evidence", "lexicon.evidence", SPAN,
     lambda b, r: {"lexicon.evidence_scans": len(b["corpus"].pairs)}),
    ("evaluation", "evaluate", "evaluation.evaluate", SPAN, None),
    ("evaluation", "write_eval_report", "evaluation.write", SPAN, None),
)


class Recorder:
    """In-memory spans and counters for one traced process."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.each: dict[tuple[int | None, str], list] = {}
        self.counts: Counter = Counter()
        self.chunk_cpu: list[float] = []  # time.thread_time of each chunk
        self.pools: list[tuple[int, float]] = []  # (threads, wall) per process_chunks
        self.notes: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def span(self, func, name: str, hook):
        sig = inspect.signature(func)

        def traced(*args, **kwargs):
            stack = self._stack()
            sid, parent = next(self._ids), (stack[-1] if stack else None)
            label = f"stage.{args[0]}" if name == "stage" else name
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, label, start, end, parent))
            if hook is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self.counts.update(hook(bound.arguments, result))
                except (AttributeError, KeyError, TypeError) as exc:
                    self.notes.append(f"{label}: count hook failed: {exc!r}")
            return result

        return traced

    def each_call(self, func, name: str):
        def traced(*args, **kwargs):
            stack = self._stack()
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                slot = self.each.setdefault((stack[-1] if stack else None, name), [0, 0.0])
                slot[0] += 1
                slot[1] += elapsed

        return traced

    def chunks(self, func):
        def traced(chunk_func, items, *rest, **kwargs):
            threads = rest[0] if rest else kwargs.get("threads", 1)

            def timed(chunk):
                start = time.thread_time()
                try:
                    return chunk_func(chunk)
                finally:
                    self.chunk_cpu.append(time.thread_time() - start)

            start = time.perf_counter()
            try:
                return func(timed, items, *rest, **kwargs)
            finally:
                self.pools.append((threads, time.perf_counter() - start))

        return traced

    def install(self) -> None:
        for module_name, attr, name, kind, hook in TARGETS:
            module = importlib.import_module(f"dclex.{module_name}")
            func = getattr(module, attr, None)
            if func is None:
                self.notes.append(f"dclex.{module_name}.{attr} not found")
                continue
            if kind == EACH:
                wrapped = self.each_call(func, name)
            elif kind == CHUNKS:
                wrapped = self.chunks(func)
                if name is not None:
                    wrapped = self.span(wrapped, name, hook)
            else:
                wrapped = self.span(func, name, hook)
            setattr(module, attr, wrapped)

    def dump(self, path: Path) -> None:
        doc = {
            "spans": [
                {"id": s, "name": n, "start": a, "end": b, "parent": p}
                for s, n, a, b, p in sorted(self.spans)
            ],
            "each": [
                {"parent": p, "name": n, "calls": c, "seconds": t}
                for (p, n), (c, t) in self.each.items()
            ],
            "counts": dict(self.counts),
            "chunk_cpu_s": sum(self.chunk_cpu),
            "chunks": len(self.chunk_cpu),
            "pools": self.pools,
            "notes": self.notes,
        }
        Path(path).write_text(json.dumps(doc), encoding="utf-8")


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


def _durations(doc: dict) -> tuple[dict[int, float], dict[int | None, float]]:
    """Duration of each span, and the time its direct children cover."""
    dur = {s["id"]: s["end"] - s["start"] for s in doc["spans"]}
    covered: dict[int | None, float] = defaultdict(float)
    for s in doc["spans"]:
        covered[s["parent"]] += dur[s["id"]]
    for e in doc["each"]:
        covered[e["parent"]] += e["seconds"]
    return dur, covered


def self_times(doc: dict) -> dict[str, float]:
    """Self time per layer (the name's first dotted part), summed over spans."""
    dur, covered = _durations(doc)
    out: dict[str, float] = defaultdict(float)
    for s in doc["spans"]:
        out[s["name"].split(".")[0]] += dur[s["id"]] - covered[s["id"]]
    for e in doc["each"]:
        out[e["name"].split(".")[0]] += e["seconds"]
    return dict(out)


def stage_accounting(doc: dict) -> dict[str, tuple[float, float]]:
    """For each stage span: (its duration, the self times in its subtree)."""
    dur, covered = _durations(doc)
    parent = {s["id"]: s["parent"] for s in doc["spans"]}
    names = {s["id"]: s["name"] for s in doc["spans"]}
    stage_of: dict[int | None, str | None] = {None: None}

    def find(sid):
        if sid not in stage_of:
            name = names[sid]
            stage_of[sid] = name if name.startswith("stage.") else find(parent[sid])
        return stage_of[sid]

    sums: dict[str, float] = defaultdict(float)
    for s in doc["spans"]:
        stage = find(s["id"])
        if stage:
            sums[stage] += dur[s["id"]] - covered[s["id"]]
    for e in doc["each"]:
        stage = find(e["parent"])
        if stage:
            sums[stage] += e["seconds"]
    return {
        s["name"]: (dur[s["id"]], sums[s["name"]])
        for s in doc["spans"]
        if s["name"].startswith("stage.")
    }


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer times, counts and rates from one spans file."""
    total: dict[str, float] = defaultdict(float)
    for s in doc["spans"]:
        total[s["name"]] += s["end"] - s["start"]
    for e in doc["each"]:
        total[e["name"]] += e["seconds"]
    counts = doc["counts"]
    extracted = counts.get("phrasetable.pairs_extracted", 0)
    pool_capacity = sum(threads * wall for threads, wall in doc["pools"])
    metrics = {
        "alignment.train_s": total["alignment.train"],
        "alignment.estep_s": total["alignment.estep"],
        "alignment.train_self_s": total["alignment.train"] - total["alignment.estep"],
        "alignment.viterbi_s": total["alignment.viterbi"],
        "alignment.symmetrize_s": total["alignment.symmetrize"],
        "alignment.write_s": total["alignment.write"],
        "phrasetable.build_s": total["phrasetable.build"],
        "phrasetable.filter_s": total["phrasetable.filter"],
        "phrasetable.write_s": total["phrasetable.write"],
        "phrasetable.dc_yield": counts.get("phrasetable.dc_count", 0) / extracted if extracted else 0.0,
        "lexicon.build_s": total["lexicon.build"],
        "lexicon.evidence_s": total["lexicon.evidence"],
        "corpus.load_s": total["corpus.load"],
        "corpus.count_s": total["corpus.count"],
        "tagging.tag_s": total["tagging.tag"],
        "tagging.fuse_s": total["tagging.fuse"],
        "evaluation.evaluate_s": total["evaluation.evaluate"],
        "parallel.chunks": doc["chunks"],
        "parallel.efficiency": doc["chunk_cpu_s"] / pool_capacity if pool_capacity else 0.0,
    }
    for name in (
        "alignment.estep_cells",
        "alignment.ttable_entries",
        "phrasetable.pairs_extracted",
        "lexicon.entries",
        "lexicon.evidence_scans",
        "corpus.matches",
    ):
        metrics[name] = counts.get(name, 0)
    return metrics


def _links(line: str) -> list[tuple[int, int]]:
    return [tuple(map(int, tok.split("-"))) for tok in line.split()]


def alignment_rates(
    out: Path, forms: list[tuple[str, ...]], relations: frozenset[str]
) -> dict[str, float]:
    """NULL rate of the forward alignment, and the share of linked fused
    tokens whose symmetrized links land on a target inventory occurrence
    (longest match, left to right, non-overlapping)."""
    tgt = (out / "corpus.tgt").read_text(encoding="utf-8").splitlines()
    rates = {"alignment.null_rate": 0.0, "alignment.fused_yield": 0.0}
    fwd_path = out / "alignments.fwd.txt"
    if fwd_path.is_file():
        fwd = fwd_path.read_text(encoding="utf-8").splitlines()
        tokens = sum(len(line.split()) for line in tgt)
        linked = sum(len({j for _, j in _links(line)}) for line in fwd)
        rates["alignment.null_rate"] = 1 - linked / tokens

    fused = (out / "fused.src").read_text(encoding="utf-8").splitlines()
    sym = (out / "alignments.sym.txt").read_text(encoding="utf-8").splitlines()
    linked = on_form = 0
    for src_line, tgt_line, links_line in zip(fused, tgt, sym):
        src = src_line.split()
        targets: dict[int, list[int]] = defaultdict(list)
        for i, j in _links(links_line):
            if src[i].rpartition("-")[2] in relations:
                targets[i].append(j)
        if not targets:
            continue
        covered = {
            j
            for start, form in corpusgen.longest_matches(tgt_line.split(), forms)
            for j in range(start, start + len(form))
        }
        linked += len(targets)
        on_form += sum(1 for js in targets.values() if covered.intersection(js))
    if linked:
        rates["alignment.fused_yield"] = on_form / linked
    return rates


def main(argv: list[str]) -> int:
    spans_path, args = Path(argv[0]), argv[1:]
    from dclex import cli

    recorder = Recorder()
    recorder.install()
    try:
        return cli.main(args)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
