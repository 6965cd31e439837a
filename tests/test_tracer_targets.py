"""The benchmark tracer's hooks still fit the package.

`benchmarks/tracer.py` replaces the module attributes in its TARGETS with
timing wrappers; a missing one breaks traced benchmark runs, and a hook
that no longer fits the signature or the result of its function leaves a
note. TARGETS is read from the checkout, not copied, so a benchmark change
that drops a target needs no edit here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from dclex import cli

import planted

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))  # tracer imports corpusgen
    spec = importlib.util.spec_from_file_location("tracer", BENCHMARKS / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_exists(tracer):
    assert tracer.TARGETS
    missing = [
        f"dclex.{module}.{attribute}"
        for module, attribute, *_ in tracer.TARGETS
        if not hasattr(importlib.import_module(f"dclex.{module}"), attribute)
    ]
    assert missing == []


@pytest.mark.parametrize("tagger", ["default_senses", "annotations"])
def test_hooks_record_a_run_all_without_notes(tracer, tmp_path, tagger):
    config = planted.generate(tmp_path, pairs=120, dc_count=20, thresh_count=6, min_freq=5)
    if tagger == "annotations":
        # The spans the default senses would tag; the file takes precedence.
        sentences = (tmp_path / "corpus.en").read_text(encoding="utf-8").splitlines()
        senses = {"zonk": "REL_A", "frub": "REL_B"}
        records = [
            f"{k}\t{i}\t{i}\t{token}\t{senses[token]}\t1\n"
            for k, line in enumerate(sentences)
            for i, token in enumerate(line.split())
            if token in senses
        ]
        annotations = tmp_path / "annotations.tsv"
        annotations.write_text("".join(records), encoding="utf-8")
        with config.open("a", encoding="utf-8") as f:
            f.write(f"annotations = {annotations}\n")
    modules = {name: importlib.import_module(f"dclex.{name}") for name, *_ in tracer.TARGETS}
    saved = [(modules[name], attribute) for name, attribute, *_ in tracer.TARGETS]
    saved = [(module, attribute, getattr(module, attribute)) for module, attribute in saved]
    recorder = tracer.Recorder()
    try:
        recorder.install()
        assert cli.main(["run", "all", "--config", str(config)]) == 0
    finally:
        for module, attribute, original in saved:
            setattr(module, attribute, original)
    assert recorder.notes == []
    recorded = {name for _, name, *_ in recorder.spans}
    for name in ("corpus.count", "tagging.tag", "tagging.fuse", "alignment.train", "phrasetable.build"):
        assert name in recorded, name
    assert recorder.counts["corpus.matches"] > 0
    assert recorder.counts["alignment.estep_cells"] > 0
