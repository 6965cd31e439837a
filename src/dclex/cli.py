"""Command-line pipeline: ingest | tag | align | extract | build | eval |
evidence | report, plus `run all`.

Every stage writes its artifacts to the configured output directory. Each
stage is declared once, where its function is defined (`_stage`): the input
tables it reads, what it reads that another stage makes, and the artifact
files it writes. A command first loads the input tables of the stages it
runs, once each and with the checks across tables (`_tables`), so `run all`
stops on a bad table before ingest writes. What another stage makes is got
by one rule (`Handoff.read`): the object an earlier stage of the same
command handed on in memory, or else the files in the output directory,
read by the stage's reader there. So a fresh `run all` reads back none of
the artifacts it writes, any stage can be rerun alone, and each object is
dropped after the last stage of the command that reads it. A stage run
alone interns the token files it reads as ingest did the corpus, and finds
the target connective occurrences again; evidence alone splits only the
lines its sites name. Align trains on every pair but decodes, symmetrizes
and writes links only for the pairs whose fused source side holds a fused
connective and whose target side holds a target connective occurrence
(`tagging.connective_pairs`), the only pairs extract can count a site from;
`alignments.sym.txt` keeps an empty line for each other pair. A JSON
manifest records the config snapshot, input digests, per-stage row counts
and timing; one call reads it and hashes the inputs once.

Each stage imports the modules it runs when it starts, so loading this
module and validating a config load only `corpus`, `fileio` and `errors` of
the package, and a stage's timing includes loading its modules, though not
its tables. Calls go through the module (`al.symmetrize`), so a wrapper set
on a module attribute sees them. The records of the package are
`NamedTuple`s, so neither loading nor validating loads `dataclasses` (nor
`inspect`, which it imports); `argparse` loads when the parser is built,
and `json` when a manifest is read or written. The `dclex` command
(`entry`) runs with the cyclic garbage collector off: its passes would
mostly walk the objects of the imported modules, and the few cycles a run
leaves die with the process.
"""

from __future__ import annotations

import errno
import gc
import logging
import os
import sys
import time
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Sequence

from . import __version__
from . import corpus as cp
from .corpus import process_chunks
from .errors import PipelineError, UsageError
from .fileio import atomic_write_text, iter_data_lines, read_text_strict, sha256_file

if TYPE_CHECKING:  # annotations only: the parser loads argparse when it is built
    import argparse

logger = logging.getLogger(__name__)

CONFIG_ENV_VAR = "CONLEDISCO_CONFIG"

ARTIFACTS = {
    "corpus_src": "corpus.src",
    "corpus_tgt": "corpus.tgt",
    "freqs": "freqs.tsv",
    "fused_src": "fused.src",
    "align_sym": "alignments.sym.txt",
    "sites": "sites.tsv",
    "dc_records": "dc_records.tsv",
    "lexicon": "lexicon.tsv",
    "eval_report": "eval_report.txt",
    "evidence": "evidence.txt",
    "table1": "table1.tsv",
    "manifest": "manifest.json",
}


class PipelineConfig(NamedTuple):
    """Validated pipeline settings; field names double as config-file keys,
    and a key's value parses as its default's type (text when it has none)."""

    src_corpus: str
    tgt_corpus: str
    src_inventory: str
    tgt_inventory: str
    output_dir: str = "out"
    annotations: str | None = None
    default_senses: str | None = None
    gold_lexicon: str | None = None
    relation_map: str | None = None
    induced_relations: str | None = None
    gold_relations: str | None = None
    iterations: int = 5
    use_null: bool = True
    heuristic: str = "grow-diag-final"
    max_phrase_len: int = 7
    min_freq: int = 50
    lowercase: bool = True
    skip_empty: bool = True
    seed: int = 0
    limit: int = 0
    model: str = "model1"
    evidence_k: int = 5
    evidence_min_prob: float = 0.01


# `alignment.HEURISTICS`, spelled out as `model`'s values are, so that
# validating a config does not load the aligner; a test keeps the two equal.
_HEURISTICS = ("intersection", "union", "grow-diag-final")

# Keys that earlier versions read and no stage reads any more; configs
# written for those versions carry them.
_RETIRED_KEYS = ("threads", "dump_ttables")

_REQUIRED_KEYS = ("src_corpus", "tgt_corpus", "src_inventory", "tgt_inventory")
# The keys naming input files, in the order `_tables` checks them; the
# manifest records their digests.
_INPUT_KEYS = _REQUIRED_KEYS + (
    "annotations",
    "default_senses",
    "gold_lexicon",
    "relation_map",
    "induced_relations",
    "gold_relations",
)


def _parse_bool(key: str, raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise UsageError(f"config key {key!r}: expected a boolean, got {raw!r}")


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise UsageError(f"config key {key!r}: expected an integer, got {raw!r}") from exc


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise UsageError(f"config key {key!r}: expected a number, got {raw!r}") from exc


# The parser of a key, by the type of its default; a key with no default,
# or a None one, is text.
_PARSERS = {bool: _parse_bool, int: _parse_int, float: _parse_float}


def _check_ranges(cfg: PipelineConfig) -> None:
    if cfg.iterations < 1:
        raise UsageError(f"config key 'iterations' must be >= 1, got {cfg.iterations}")
    if cfg.max_phrase_len < 1:
        raise UsageError(f"config key 'max_phrase_len' must be >= 1, got {cfg.max_phrase_len}")
    if cfg.min_freq < 0:
        raise UsageError(f"config key 'min_freq' must be >= 0, got {cfg.min_freq}")
    if cfg.limit < 0:
        raise UsageError(f"config key 'limit' must be >= 0, got {cfg.limit}")
    if cfg.evidence_k < 1:
        raise UsageError(f"config key 'evidence_k' must be >= 1, got {cfg.evidence_k}")
    if not 0.0 <= cfg.evidence_min_prob <= 1.0:
        raise UsageError(
            f"config key 'evidence_min_prob' must be in [0, 1], got {cfg.evidence_min_prob}"
        )
    if cfg.heuristic not in _HEURISTICS:
        raise UsageError(
            f"config key 'heuristic' must be one of {', '.join(_HEURISTICS)}; "
            f"got {cfg.heuristic!r}"
        )
    if cfg.model not in ("model1", "model2"):
        raise UsageError(f"config key 'model' must be model1 or model2, got {cfg.model!r}")


def validate_config(path: str) -> PipelineConfig:
    """Parse a line-oriented `key = value` config file, strictly.

    Unknown keys are rejected with a closest-match suggestion; missing
    required keys, keys with no value and out-of-range values are fatal
    before any work runs.
    A retired key (`threads`, `dump_ttables`), which no stage reads any
    more, is logged and dropped.
    """
    fields = PipelineConfig._fields
    defaults = PipelineConfig._field_defaults
    if not Path(path).is_file():
        raise UsageError(f"config file not found: {path}")
    values: dict[str, object] = {}
    for lineno, payload in iter_data_lines(read_text_strict(path)):
        if "=" not in payload:
            raise UsageError(f"{path}: expected `key = value` at line {lineno}")
        key, raw = (part.strip() for part in payload.split("=", 1))
        if key in _RETIRED_KEYS:
            logger.info("%s: config key %r is ignored (line %d)", path, key, lineno)
            continue
        if key not in fields:
            import difflib

            close = difflib.get_close_matches(key, fields, n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise UsageError(f"{path}: unknown config key {key!r} at line {lineno}{hint}")
        if key in values:
            raise UsageError(f"{path}: duplicate config key {key!r} at line {lineno}")
        if not raw:
            raise UsageError(f"{path}: config key {key!r} has no value at line {lineno}")
        parse = _PARSERS.get(type(defaults.get(key)))
        values[key] = parse(key, raw) if parse else raw
    missing = [key for key in _REQUIRED_KEYS if key not in values]
    if missing:
        raise UsageError(f"{path}: missing required config key(s): {', '.join(missing)}")
    cfg = PipelineConfig(**values)  # type: ignore[arg-type]
    _check_ranges(cfg)
    return cfg


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------


def _manifest_path(cfg: PipelineConfig) -> Path:
    return Path(cfg.output_dir) / ARTIFACTS["manifest"]


def _recorded_stages(path: Path) -> dict[str, object]:
    """The stages that the manifest at `path` records."""
    import json

    text = read_text_strict(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PipelineError(f"{path}: not a dclex manifest: {exc}") from exc
    stages = data.get("stages") if isinstance(data, dict) else None
    if not isinstance(stages, dict):
        raise PipelineError(f"{path}: not a dclex manifest: it has no 'stages' object")
    return stages


def open_manifest(cfg: PipelineConfig) -> dict:
    """The reproducibility record of this run: its "version", "config" and
    "inputs" (the SHA-256 of each input file that exists, by path, the
    packaged table included for an unset relation key), and the "stages"
    that the manifest under the output directory, if any, records (per
    stage, its rows and seconds, or why it was skipped). The output
    directory is made if need be; a file in its way is a usage error. A
    directory in the way of the manifest is the error that writing it would
    give, before any stage runs."""
    path = _manifest_path(cfg)
    if path.is_dir():
        raise PipelineError(f"cannot write {path}: {os.strerror(errno.EISDIR)}")
    stages = _recorded_stages(path) if path.is_file() else {}
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise UsageError(f"cannot make output directory {path.parent}: {exc.strerror}") from exc
    files = [_config_path(cfg, key) for key in _INPUT_KEYS]
    return {
        "version": __version__,
        "config": cfg._asdict(),
        "inputs": {str(file): sha256_file(file) for file in files if file and Path(file).is_file()},
        "stages": stages,
    }


def write_manifest(cfg: PipelineConfig, manifest: dict) -> None:
    import json

    atomic_write_text(_manifest_path(cfg), json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def _out(cfg: PipelineConfig, name: str) -> Path:
    return Path(cfg.output_dir) / ARTIFACTS[name]


def _require(cfg: PipelineConfig, name: str) -> Path:
    path = _out(cfg, name)
    if not path.is_file():
        raise UsageError(f"missing artifact {path}: run the `{_WRITTEN_BY[name]}` stage first")
    return path


# The packaged table that each of these keys reads when it is unset.
_PACKAGED_TABLES = {
    key: Path(__file__).with_name("data") / name
    for key, name in (
        ("induced_relations", "induced_relations.txt"),
        ("gold_relations", "gold_relations.txt"),
        ("relation_map", "relation_map.tsv"),
    )
}


def _config_path(cfg: PipelineConfig, key: str) -> str | Path | None:
    """The file that config key `key` names, or the packaged table that
    stands for it when it is unset, or None."""
    return getattr(cfg, key) or _PACKAGED_TABLES.get(key)


# How a stage reads an artifact that its command did not make: the
# artifact files it reads, and `read(handoff, *paths)` of their paths.
_Reader = tuple[tuple[str, ...], Callable[..., Any]]


def _by(function: str, *files: str) -> _Reader:
    """The reader of `files` by `function`, `module.name` of the package,
    looked up as it reads, so that cli loads no stage's module early."""
    module, name = function.split(".")
    return files, lambda handoff, *paths: getattr(import_module(f"dclex.{module}"), name)(*paths)


_WORK = _by("corpus.load_token_corpus", "fused_src", "corpus_tgt")
# The occurrences that ingest counted, found again on the work pairs.
_OCCURRENCES: _Reader = (
    (), lambda h: cp.find_occurrences(h.read("work").tgt, h.tables["tgt_inventory"])
)
_FREQS = _by("corpus.read_frequency_table", "freqs")
_LEXICON = _by("lexicon.read_ranked_lexicon", "lexicon")


class _Stage(NamedTuple):
    """A stage as `_stage` declares it: its function; the input files it
    reads, by config key (tag reads `annotations` if set, or else
    `default_senses`, as well); what it reads that an earlier stage makes,
    by the name it is handed on under (`Handoff`), with the reader it uses
    when its command did not make it; and the artifact files it writes."""

    run: Callable[..., dict]
    inputs: tuple[str, ...]
    reads: dict[str, _Reader]
    writes: tuple[str, ...]


_REGISTRY: dict[str, _Stage] = {}  # every stage by name, in the order `run all` runs them
# The tables that align, extract and evidence read to tell a connective.
_CONNECTIVES = ("src_inventory", "tgt_inventory", "induced_relations")


def _stage(inputs: tuple[str, ...] = (), reads: dict[str, _Reader] | None = None,
           writes: tuple[str, ...] = ()) -> Callable:
    """Register the decorated `_stage_NAME` as stage NAME, after those before it."""
    def register(run: Callable[..., dict]) -> Callable[..., dict]:
        _REGISTRY[run.__name__.removeprefix("_stage_")] = _Stage(run, inputs, reads or {}, writes)
        return run
    return register


def _tables(cfg: PipelineConfig, stages: Sequence[str]) -> dict[str, Any]:
    """The input files that `stages` read, by config key, each read once:
    every file is checked to be set and to exist, then each table is loaded
    with the checks the stages make across tables. The corpus files are
    given by path, for ingest to read. `annotations` is read once, as
    `tagging.Annotations`, with every check that needs no corpus; tag
    checks its spans against the corpus. The fused token of each sense that
    tag would give a source form must split back into them
    (`tagging.check_read_back`); with extract in the command, it must read
    back as that connective, and every `src_inventory` form, even one that
    never occurs, needs a sense (`tagging.check_senses`)."""
    from . import inventory as inv

    keys = {key for stage in stages for key in _REGISTRY[stage].inputs}
    if "tag" in stages:
        from . import tagging as tg

        if not (cfg.annotations or cfg.default_senses):
            raise UsageError("the tag stage needs either 'annotations' or 'default_senses' configured")
        keys.add("annotations" if cfg.annotations else "default_senses")
    tables: dict[str, Any] = {}
    for key in sorted(keys, key=_INPUT_KEYS.index):
        value = _config_path(cfg, key)
        if not value:
            raise UsageError(f"config key {key!r} is required by this stage")
        if not Path(value).is_file():
            raise UsageError(f"config key {key!r}: file not found: {value}")
        tables[key] = str(value)
    for key, load in (
        ("tgt_inventory", inv.load_connective_inventory),
        ("src_inventory", inv.load_connective_inventory),
        ("induced_relations", inv.load_relation_inventory),
        ("default_senses", inv.load_default_senses),
    ):
        if key in keys:
            tables[key] = load(tables[key])
    if "annotations" in keys:
        tables["annotations"] = tg.Annotations.of(tables["annotations"])
    if "tag" in stages:
        src_inventory, senses = tables["src_inventory"], tables.get("default_senses")
        if senses is None:
            tagged = tg.annotated_senses(tables["annotations"])
        else:
            tagged = [(form, senses.get(" ".join(form))) for form in src_inventory]
        if "extract" in stages:
            tg.check_senses(tagged, src_inventory, tables["induced_relations"])
        else:
            tg.check_read_back([sense for sense in tagged if sense[1]], src_inventory)
    if "gold_lexicon" in keys:
        gold = tables["gold_relations"] = inv.load_relation_inventory(tables["gold_relations"])
        tables["gold_lexicon"] = inv.load_gold_lexicon(tables["gold_lexicon"], gold)
        tables["relation_map"] = inv.load_relation_map(
            tables["relation_map"], tables["induced_relations"], gold
        )
    return tables


class Handoff:
    """What a command hands its stages: its `args`, the input `tables` of
    the stages it runs (`_tables`), and `made`, what its stages made that a
    later one reads (`_Stage.reads`), while `stage` runs."""

    def __init__(
        self, cfg: PipelineConfig, stages: Sequence[str], args: argparse.Namespace | None = None
    ) -> None:
        self.cfg, self.stages, self.args = cfg, tuple(stages), args
        self.tables = _tables(cfg, self.stages)
        self.made: dict[str, Any] = {}
        self.stage = self.stages[0]

    def read(self, name: str) -> Any:
        """Artifact `name` as an earlier stage of the command made it, or
        else as the running stage's reader reads it."""
        if name not in self.made:
            files, read = _REGISTRY[self.stage].reads[name]
            self.made[name] = read(self, *(str(_require(self.cfg, file)) for file in files))
        return self.made[name]

    def done(self) -> None:
        """Drop what no stage after the running one in the command reads."""
        later = self.stages[self.stages.index(self.stage) + 1 :]
        read = {name for stage in later for name in _REGISTRY[stage].reads}
        for name in self.made.keys() - read:
            del self.made[name]


@_stage(inputs=("src_corpus", "tgt_corpus", "tgt_inventory"),
        writes=("corpus_src", "corpus_tgt", "freqs"))
def _stage_ingest(cfg: PipelineConfig, handoff: Handoff) -> dict[str, int]:
    tables = handoff.tables
    corpus = cp.load_parallel_corpus(
        tables["src_corpus"], tables["tgt_corpus"],
        lowercase=cfg.lowercase,
        skip_empty=cfg.skip_empty,
        limit=cfg.limit or None,
    )
    if not corpus:
        raise PipelineError("corpus is empty after loading")
    cp.write_token_file(corpus.src, _out(cfg, "corpus_src"))
    cp.write_token_file(corpus.tgt, _out(cfg, "corpus_tgt"))
    freqs = cp.count_occurrences(corpus, tables["tgt_inventory"])
    cp.write_frequency_table(freqs, _out(cfg, "freqs"))
    # The table is handed on without its occurrences, which extract reads last.
    handoff.made.update(
        corpus=corpus, freqs=cp.FrequencyTable(freqs.entries), occurrences=freqs.occurrences
    )
    return {"pairs": len(corpus), "target_forms": len(freqs.entries)}


@_stage(inputs=("src_inventory",),
        reads={"corpus": _by("corpus.load_token_corpus", "corpus_src", "corpus_tgt")},
        writes=("fused_src",))
def _stage_tag(cfg: PipelineConfig, handoff: Handoff) -> dict[str, int]:
    from . import tagging as tg

    pairs = handoff.read("corpus")
    src = pairs.src
    tables = handoff.tables
    if "annotations" in tables:
        tags = tg.load_annotations(tables["annotations"], src)
    else:
        tags = tg.heuristic_tag(src, tables["src_inventory"], tables["default_senses"])
    fused = tg.fuse_corpus(src, tags)
    tg.write_fused_corpus(fused, _out(cfg, "fused_src"))
    handoff.made["work"] = cp.Bitext(fused, pairs.tgt)
    return {"annotations": len(tags), "sentences": len(fused)}


@_stage(inputs=_CONNECTIVES, reads={"work": _WORK, "occurrences": _OCCURRENCES},
        writes=("align_sym",))
def _stage_align(cfg: PipelineConfig, handoff: Handoff) -> dict[str, object]:
    from . import alignment as al
    from . import tagging as tg

    pairs = handoff.read("work")
    src, tgt = pairs.src, pairs.tgt
    train = al.train_model2 if cfg.model == "model2" else al.train_model1
    # EM trains on every pair; only the pairs that can give extract a site
    # are decoded.
    tables = handoff.tables
    decoded = tg.connective_pairs(
        src, tables["src_inventory"], tables["induced_relations"], handoff.read("occurrences")
    )

    def decode(model: al.TranslationTable) -> al.Links:
        return al.Links.concat(process_chunks(model.decode, decoded))

    model = train(pairs, cfg.iterations, cfg.use_null)
    fwd = decode(model)
    fwd_ll, fwd_entries = model.log_likelihoods, model.entries
    # The backward model takes its cells from the decoded forward one, which
    # releases its EM state before the backward EM starts.
    model = train(cp.Bitext(tgt, src), cfg.iterations, cfg.use_null, inverse=model)
    bwd = al.transpose(decode(model))
    bwd_ll, bwd_entries = model.log_likelihoods, model.entries
    del model
    symmetrized = al.symmetrize(fwd, bwd, cfg.heuristic).spread(decoded, len(src))
    al.write_alignments(symmetrized, _out(cfg, "align_sym"))
    handoff.made["links"] = symmetrized
    # Viterbi links each target position at most once, so the share of the
    # decoded target tokens left unlinked is the forward NULL rate; the
    # backward one is taken over the decoded source tokens.
    src_tokens = int(src.lengths()[decoded].sum())
    tgt_tokens = int(tgt.lengths()[decoded].sum())
    return {
        "pairs": len(src),
        "src_tokens": len(src.ids),
        "tgt_tokens": len(tgt.ids),
        "decoded_pairs": len(decoded),
        "fwd_links": fwd.total,
        "bwd_links": bwd.total,
        "sym_links": symmetrized.total,
        "fwd_null_rate": _rate(tgt_tokens - fwd.total, tgt_tokens),
        "bwd_null_rate": _rate(src_tokens - bwd.total, src_tokens),
        "fwd_log_likelihood": list(fwd_ll),
        "bwd_log_likelihood": list(bwd_ll),
        "fwd_t_entries": fwd_entries,
        "bwd_t_entries": bwd_entries,
    }


def _rate(part: int, whole: int) -> float | None:
    """part / whole to six places, or None when `whole` is 0."""
    return round(part / whole, 6) if whole else None


@_stage(inputs=_CONNECTIVES,
        reads={"work": _WORK, "links": _by("alignment.read_alignments", "align_sym"),
               "occurrences": _OCCURRENCES},
        writes=("sites", "dc_records"))
def _stage_extract(cfg: PipelineConfig, handoff: Handoff) -> dict[str, int]:
    from . import phrasetable as pt

    tables = handoff.tables
    src_inventory, relations = tables["src_inventory"], tables["induced_relations"]
    table = pt.build_phrase_table(
        handoff.read("work"), handoff.read("links"), tables["tgt_inventory"], src_inventory,
        relations, cfg.max_phrase_len, handoff.read("occurrences"),
    )
    pt.write_sites(table.sites, _out(cfg, "sites"))
    records = pt.filter_dc_entries(table, src_inventory, relations)
    pt.write_dc_records(records, _out(cfg, "dc_records"))
    handoff.made.update(sites=table.sites, records=records)
    aligned = sum(e.count for e in table)
    return {"occurrences": table.occurrences, "aligned": aligned, "dc_records": len(records)}


@_stage(reads={"records": _by("phrasetable.read_dc_records", "dc_records"), "freqs": _FREQS},
        writes=("lexicon",))
def _stage_build(cfg: PipelineConfig, handoff: Handoff) -> dict[str, int]:
    from . import lexicon as lx

    ranked = lx.build_lexicon(handoff.read("records"), handoff.read("freqs"), cfg.min_freq)
    lx.write_ranked_lexicon(ranked, _out(cfg, "lexicon"))
    handoff.made["lexicon"] = ranked
    return {"entries": len(ranked.entries)}


class _NoGoldPair(PipelineError):
    """No gold pair's connective reaches `min_freq`: `run all` skips eval,
    and eval run alone fails."""


@_stage(inputs=("gold_relations", "gold_lexicon", "induced_relations", "relation_map"),
        reads={"lexicon": _LEXICON, "freqs": _FREQS}, writes=("eval_report",))
def _stage_eval(cfg: PipelineConfig, handoff: Handoff) -> dict[str, int]:
    from . import evaluation as ev
    from . import inventory as inv

    ranked, freqs = handoff.read("lexicon"), handoff.read("freqs")
    tables = handoff.tables
    gold = inv.restrict_gold(tables["gold_lexicon"], freqs, cfg.min_freq)
    if not gold:
        raise _NoGoldPair(
            f"gold lexicon is empty after applying the frequency threshold {cfg.min_freq}"
        )
    report = ev.evaluate(ranked, gold, tables["relation_map"])
    ev.write_eval_report(report, _out(cfg, "eval_report"))
    return {
        "relevant_retrieved": report.relevant_retrieved,
        "total_relevant": report.total_relevant,
    }


# Only the pairs the sites name are split into tokens; numpy is not loaded.
@_stage(inputs=_CONNECTIVES,
        reads={"lexicon": _LEXICON, "sites": _by("phrasetable.read_sites", "sites"),
               "work": _by("corpus.open_token_corpus", "fused_src", "corpus_tgt")},
        writes=("evidence",))
def _stage_evidence(cfg: PipelineConfig, handoff: Handoff) -> dict[str, int]:
    from fractions import Fraction

    from . import lexicon as lx

    ranked, rows, work = (handoff.read(name) for name in ("lexicon", "sites", "work"))
    tables = handoff.tables
    try:
        sites = lx.group_sites(
            work, rows,
            tables["tgt_inventory"], tables["src_inventory"], tables["induced_relations"],
        )
    except PipelineError as exc:
        raise PipelineError(f"{_out(cfg, 'sites')}: {exc}") from exc

    only_dc = getattr(handoff.args, "dc", None)
    only_relation = getattr(handoff.args, "relation", None)
    min_prob = Fraction(str(cfg.evidence_min_prob))
    targets = [
        (rank, entry)
        for rank, entry in enumerate(ranked.entries)
        if entry.prob >= min_prob
        and (only_dc is None or entry.fr_dc == only_dc)
        and (only_relation is None or entry.relation == only_relation)
    ]
    blocks = []
    sampled = 0
    quoted = cp.Corpus(work)  # as `sample_evidence` takes the pairs
    for rank, entry in targets:
        # Per-entry seed derived from the run seed and the entry's rank in the
        # whole lexicon, so a rerun with the same config, filtered or not,
        # reproduces the same samples.
        excerpts = lx.sample_evidence(
            quoted,
            sites.get((entry.fr_dc, entry.relation), []),
            cfg.evidence_k,
            cfg.seed * 100003 + rank,
        )
        sampled += len(excerpts)
        if excerpts:
            blocks.append(lx.format_evidence(entry.fr_dc, entry.relation, excerpts))
    atomic_write_text(_out(cfg, "evidence"), "\n".join(blocks))
    return {"entries": len(targets), "excerpts": sampled}


@_stage(inputs=("tgt_inventory",), reads={"freqs": _FREQS}, writes=("table1",))
def _stage_report(cfg: PipelineConfig, handoff: Handoff) -> dict[str, int]:
    freqs = handoff.read("freqs")
    tgt_inventory = handoff.tables["tgt_inventory"]
    zero = below = above = 0
    for form in tgt_inventory:
        count = freqs.count(" ".join(form))
        if count == 0:
            zero += 1
        elif count < cfg.min_freq:
            below += 1
        else:
            above += 1
    total = len(tgt_inventory)
    header = f"=0\t<{cfg.min_freq}\t>={cfg.min_freq}\ttotal"
    row = f"{zero}\t{below}\t{above}\t{total}"
    text = header + "\n" + row + "\n"
    atomic_write_text(_out(cfg, "table1"), text)
    print(text, end="")
    return {"inventory_forms": total}


STAGES = tuple(_REGISTRY)
# The stage that writes each artifact file; `_require` names it.
_WRITTEN_BY = {file: name for name, stage in _REGISTRY.items() for file in stage.writes}


def run_stage(
    stage: str, cfg: PipelineConfig, handoff: Handoff | None = None, manifest: dict | None = None
) -> dict:
    """Run one stage, then record it in the manifest and write that under
    the output directory. `handoff` and `manifest` are those of the command
    under way; without them, the stage makes its own (`Handoff`, which
    loads its tables, and `open_manifest`)."""
    if stage not in _REGISTRY:
        raise UsageError(f"unknown stage {stage!r}")
    if handoff is None:
        handoff = Handoff(cfg, (stage,))
    if manifest is None:
        manifest = open_manifest(cfg)
    handoff.stage = stage
    started = time.perf_counter()
    rows = _REGISTRY[stage].run(cfg, handoff)
    elapsed = time.perf_counter() - started
    handoff.done()
    manifest["stages"][stage] = {"rows": rows, "seconds": round(elapsed, 3)}
    write_manifest(cfg, manifest)
    logger.info("stage %s done in %.2fs: %s", stage, elapsed, rows)
    return rows


def skip_eval(cfg: PipelineConfig, reason: str, manifest: dict) -> None:
    """Record in the manifest of a run under way that eval was skipped, and
    why, and remove the report of an earlier run, which would read as this
    run's."""
    _out(cfg, "eval_report").unlink(missing_ok=True)
    manifest["stages"]["eval"] = {"skipped": reason}
    write_manifest(cfg, manifest)
    logger.info("stage eval skipped: %s", reason)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="dclex",
        description="Induce a connective-to-relation lexicon from a parallel corpus.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--config",
            help=f"pipeline config file (falls back to ${CONFIG_ENV_VAR})",
        )
        p.add_argument("--limit", type=int, help="use only the first N sentence pairs")
        p.add_argument("--seed", type=int, help="random seed override")
        p.add_argument("--output", help="output directory override")

    for stage in STAGES:
        p = sub.add_parser(stage, help=f"run the {stage} stage")
        add_common(p)
        if stage == "evidence":
            p.add_argument("--dc", help="restrict to one target connective")
            p.add_argument("--relation", help="restrict to one relation label")

    p = sub.add_parser("run", help="run pipeline stages in order")
    p.add_argument("what", choices=["all"], help="which stage set to run")
    add_common(p)
    return parser


def _resolve_config(args: argparse.Namespace) -> PipelineConfig:
    if args.config == "":
        raise UsageError("--config must name a file, got ''")
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    if not path:
        raise UsageError(
            f"no config given: pass --config or set ${CONFIG_ENV_VAR}"
        )
    overrides: dict[str, object] = {}
    for key in ("limit", "seed"):
        if getattr(args, key) is not None:
            overrides[key] = getattr(args, key)
    if args.output is not None:
        if not args.output:
            raise UsageError("--output must name a directory, got ''")
        overrides["output_dir"] = args.output
    cfg = validate_config(path)._replace(**overrides)
    _check_ranges(cfg)
    return cfg


def main(argv: list[str] | None = None) -> int:
    # No stage calls BLAS; one OpenBLAS thread spares numpy's import the
    # start of a worker pool. A value set by the user is kept.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        if args.command == "run":
            # Local to this call: a later call, after the artifacts may have
            # been edited, must read them from the output directory. The
            # tables of every stage are loaded and checked before ingest
            # writes anything.
            stages = [stage for stage in STAGES if stage != "eval" or cfg.gold_lexicon]
            handoff = Handoff(cfg, stages, args)
            manifest = open_manifest(cfg)
            for stage in STAGES:
                if stage not in stages:
                    skip_eval(cfg, "no gold_lexicon", manifest)
                    continue
                try:
                    run_stage(stage, cfg, handoff, manifest)
                except _NoGoldPair:
                    # Evaluation has nothing to score; later stages do not read it.
                    skip_eval(cfg, f"no gold pair at min_freq {cfg.min_freq}", manifest)
        else:
            run_stage(args.command, cfg, Handoff(cfg, (args.command,), args))
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    """The `dclex` command: run `main()` on the command line, with the cyclic
    collector off, and exit with its code. What the run left is frozen
    first, so the collections that end the interpreter do not walk it;
    `main` itself leaves the collector as it was, for callers that go on
    running."""
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
