"""Command-line pipeline: ingest | tag | align | extract | build | eval |
evidence | report, plus `run all`.

Every stage writes its artifacts to the configured output directory. A stage
run alone reads its inputs from there, so stages can be rerun individually;
it interns the token files it reads as ingest interned the corpus. Within
one `run all`, a stage hands what it wrote in memory to the later stages
that read it instead: ingest's interned corpus and target connective
occurrences, tag's fused source side, align's links and extract's sites are
each made once. Evidence reads its pairs from the token files either way,
and splits only the lines its sites name. A JSON manifest records the
config snapshot, input digests, per-stage row counts and timing; one call
reads it and hashes the inputs once.

Each stage imports the modules it runs when it starts, so loading this
module and validating a config load only `corpus`, `fileio` and `errors`
of the package, and a stage's timing includes loading its modules. Calls
go through the module (`al.symmetrize`), so a wrapper set on a module
attribute sees them.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import logging
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from . import corpus as cp
from .corpus import process_chunks
from .errors import PipelineError, UsageError
from .fileio import atomic_write_text, iter_data_lines, read_text_strict, sha256_file

logger = logging.getLogger(__name__)

CONFIG_ENV_VAR = "CONLEDISCO_CONFIG"

STAGES = ("ingest", "tag", "align", "extract", "build", "eval", "evidence", "report")

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


@dataclass
class PipelineConfig:
    """Validated pipeline settings; field names double as config-file keys."""

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
# The keys naming input files: `run all` checks each one set before ingest
# writes, and the manifest records their digests.
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
    required keys and out-of-range values are fatal before any work runs.
    A retired key (`threads`, `dump_ttables`), which no stage reads any
    more, is logged and dropped.
    """
    fields = {f.name: f for f in dataclasses.fields(PipelineConfig)}
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
        ftype = fields[key].type
        if ftype == "int":
            values[key] = _parse_int(key, raw)
        elif ftype == "bool":
            values[key] = _parse_bool(key, raw)
        elif ftype == "float":
            values[key] = _parse_float(key, raw)
        else:
            values[key] = raw
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
    "inputs" (the SHA-256 of each input file, by path), and the "stages"
    that the manifest under the output directory, if any, records (per
    stage, its rows and seconds, or why it was skipped). The output
    directory is made if need be."""
    path = _manifest_path(cfg)
    stages = _recorded_stages(path) if path.is_file() else {}
    path.parent.mkdir(parents=True, exist_ok=True)
    files = [getattr(cfg, key) for key in _INPUT_KEYS]
    return {
        "version": __version__,
        "config": dataclasses.asdict(cfg),
        "inputs": {str(file): sha256_file(file) for file in files if file and Path(file).is_file()},
        "stages": stages,
    }


def write_manifest(cfg: PipelineConfig, manifest: dict) -> None:
    atomic_write_text(_manifest_path(cfg), json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def _out(cfg: PipelineConfig, name: str) -> Path:
    return Path(cfg.output_dir) / ARTIFACTS[name]


def _require(cfg: PipelineConfig, name: str, produced_by: str) -> Path:
    path = _out(cfg, name)
    if not path.is_file():
        raise UsageError(
            f"missing artifact {path}: run the `{produced_by}` stage first"
        )
    return path


def _require_config_path(cfg: PipelineConfig, key: str) -> str:
    value = getattr(cfg, key)
    if not value:
        raise UsageError(f"config key {key!r} is required by this stage")
    if not Path(value).is_file():
        raise UsageError(f"config key {key!r}: file not found: {value}")
    return value


def _load_target_inventory(cfg: PipelineConfig) -> list[cp.Form]:
    from . import inventory as inv

    return inv.load_connective_inventory(_require_config_path(cfg, "tgt_inventory"))


def _load_source_inventory(cfg: PipelineConfig) -> list[cp.Form]:
    from . import inventory as inv

    return inv.load_connective_inventory(_require_config_path(cfg, "src_inventory"))


def _load_induced_relations(cfg: PipelineConfig) -> list[str]:
    from . import inventory as inv

    if cfg.induced_relations:
        return inv.load_relation_inventory(_require_config_path(cfg, "induced_relations"))
    return inv.default_induced_relations()


def _load_gold_relations(cfg: PipelineConfig) -> list[str]:
    from . import inventory as inv

    if cfg.gold_relations:
        return inv.load_relation_inventory(_require_config_path(cfg, "gold_relations"))
    return inv.default_gold_relations()


def _load_relation_map(
    cfg: PipelineConfig, induced: list[str], gold: list[str]
) -> dict[str, str]:
    from . import inventory as inv

    if cfg.relation_map:
        return inv.load_relation_map(_require_config_path(cfg, "relation_map"), induced, gold)
    return inv.default_relation_map(induced, gold)


# What a stage of one `run all` hands to the later stages that read it, by
# name (see `main`): "corpus", ingest's `Bitext`, read by tag;
# "occurrences", ingest's target connective occurrences, read by extract;
# "work", tag's `Bitext` of the fused source and the target side, read by
# align and extract; "links", align's symmetrized links, read by extract;
# "sites", extract's sites, read by evidence. Pair k is line k of the token
# files.
Handoff = dict[str, object]


def _load_pairs(cfg: PipelineConfig, src: str, produced_by: str) -> cp.Bitext:
    """The token file `src` and the target token file, interned."""
    src_path = _require(cfg, src, produced_by)
    tgt_path = _require(cfg, "corpus_tgt", "ingest")
    return cp.load_token_corpus(str(src_path), str(tgt_path))


def _work_pairs(cfg: PipelineConfig, handoff: Handoff, last: bool = False) -> cp.Bitext:
    """The fused source side and the target side, as the aligner saw them;
    `last` when no later stage reads them from the handoff."""
    if "work" in handoff:
        return handoff.pop("work") if last else handoff["work"]
    return _load_pairs(cfg, "fused_src", "tag")


def _stage_ingest(
    cfg: PipelineConfig, extra: argparse.Namespace | None, handoff: Handoff
) -> dict[str, int]:
    corpus = cp.load_parallel_corpus(
        _require_config_path(cfg, "src_corpus"),
        _require_config_path(cfg, "tgt_corpus"),
        lowercase=cfg.lowercase,
        skip_empty=cfg.skip_empty,
        limit=cfg.limit or None,
    )
    if not corpus:
        raise PipelineError("corpus is empty after loading")
    cp.write_token_file(corpus.src, _out(cfg, "corpus_src"))
    cp.write_token_file(corpus.tgt, _out(cfg, "corpus_tgt"))
    tgt_inventory = _load_target_inventory(cfg)
    freqs = cp.count_occurrences(corpus, tgt_inventory)
    cp.write_frequency_table(freqs, _out(cfg, "freqs"))
    handoff["corpus"] = corpus
    handoff["occurrences"] = freqs.occurrences
    return {"pairs": len(corpus), "target_forms": len(freqs.entries)}


def _tag_source(cfg: PipelineConfig) -> str:
    """The config key of the file that tag takes its tags from: `annotations`,
    or else `default_senses`, whose senses it gives the `src_inventory`
    forms it finds."""
    if cfg.annotations:
        return "annotations"
    if not cfg.default_senses:
        raise UsageError("the tag stage needs either 'annotations' or 'default_senses' configured")
    return "default_senses"


def _stage_tag(
    cfg: PipelineConfig, extra: argparse.Namespace | None, handoff: Handoff
) -> dict[str, int]:
    from . import tagging as tg

    if "corpus" in handoff:
        pairs = handoff.pop("corpus")
    else:
        pairs = _load_pairs(cfg, "corpus_src", "ingest")
    src = pairs.src
    if _tag_source(cfg) == "annotations":
        tags = tg.load_annotations(_require_config_path(cfg, "annotations"), src)
    else:
        src_inventory = _load_source_inventory(cfg)
        senses = tg.load_default_senses(_require_config_path(cfg, "default_senses"))
        tags = tg.heuristic_tag(src, src_inventory, senses)
    fused = tg.fuse_corpus(src, tags)
    tg.write_fused_corpus(fused, _out(cfg, "fused_src"))
    handoff["work"] = cp.Bitext(fused, pairs.tgt)
    return {"annotations": len(tags), "sentences": len(fused)}


def _stage_align(
    cfg: PipelineConfig, extra: argparse.Namespace | None, handoff: Handoff
) -> dict[str, object]:
    from . import alignment as al

    pairs = _work_pairs(cfg, handoff)
    src, tgt = pairs.src, pairs.tgt
    train = al.train_model2 if cfg.model == "model2" else al.train_model1

    def decode(model: al.TranslationTable) -> al.Links:
        return al.Links.concat(process_chunks(model.decode, range(len(src))))

    model = train(pairs, cfg.iterations, cfg.use_null)
    fwd = decode(model)
    fwd_ll, fwd_entries = model.log_likelihoods, model.entries
    # The backward model takes its cells from the decoded forward one, which
    # releases its EM state before the backward EM starts.
    model = train(cp.Bitext(tgt, src), cfg.iterations, cfg.use_null, inverse=model)
    bwd = al.transpose(decode(model))
    bwd_ll, bwd_entries = model.log_likelihoods, model.entries
    del model
    symmetrized = al.symmetrize(fwd, bwd, cfg.heuristic)
    al.write_alignments(symmetrized, _out(cfg, "align_sym"))
    handoff["links"] = symmetrized
    # Viterbi links each target position at most once, so the forward NULL
    # rate is 1 - fwd_links / tgt_tokens, and the backward one uses src_tokens.
    return {
        "pairs": len(src),
        "src_tokens": len(src.ids),
        "tgt_tokens": len(tgt.ids),
        "fwd_links": fwd.total,
        "bwd_links": bwd.total,
        "sym_links": symmetrized.total,
        "fwd_log_likelihood": list(fwd_ll),
        "bwd_log_likelihood": list(bwd_ll),
        "fwd_t_entries": fwd_entries,
        "bwd_t_entries": bwd_entries,
    }


def _stage_extract(
    cfg: PipelineConfig, extra: argparse.Namespace | None, handoff: Handoff
) -> dict[str, int]:
    from . import alignment as al
    from . import phrasetable as pt

    pairs = _work_pairs(cfg, handoff, last=True)
    if "links" in handoff:
        links = handoff.pop("links")
    else:
        links = al.read_alignments(str(_require(cfg, "align_sym", "align")))
    tgt_inventory, src_inventory = _load_target_inventory(cfg), _load_source_inventory(cfg)
    relations = _load_induced_relations(cfg)
    # Ingest's occurrences are those of the same target side; alone, the
    # stage scans it.
    table = pt.build_phrase_table(
        pairs,
        links,
        tgt_inventory,
        src_inventory,
        relations,
        cfg.max_phrase_len,
        handoff.pop("occurrences", None),
    )
    pt.write_sites(table.sites, _out(cfg, "sites"))
    records = pt.filter_dc_entries(table, src_inventory, relations)
    pt.write_dc_records(records, _out(cfg, "dc_records"))
    handoff["sites"] = table.sites
    aligned = sum(e.count for e in table)
    return {"occurrences": table.occurrences, "aligned": aligned, "dc_records": len(records)}


def _stage_build(
    cfg: PipelineConfig, extra: argparse.Namespace | None, handoff: Handoff
) -> dict[str, int]:
    from . import lexicon as lx
    from . import phrasetable as pt

    records = pt.read_dc_records(str(_require(cfg, "dc_records", "extract")))
    freqs = cp.read_frequency_table(str(_require(cfg, "freqs", "ingest")))
    ranked = lx.build_lexicon(records, freqs, cfg.min_freq)
    lx.write_ranked_lexicon(ranked, _out(cfg, "lexicon"))
    return {"entries": len(ranked.entries)}


class _NoGoldPair(PipelineError):
    """No gold pair's connective reaches `min_freq`: `run all` skips eval,
    and eval run alone fails."""


def _stage_eval(
    cfg: PipelineConfig, extra: argparse.Namespace | None, handoff: Handoff
) -> dict[str, int]:
    from . import evaluation as ev
    from . import inventory as inv
    from . import lexicon as lx

    ranked = lx.read_ranked_lexicon(str(_require(cfg, "lexicon", "build")))
    freqs = cp.read_frequency_table(str(_require(cfg, "freqs", "ingest")))
    gold_relations = _load_gold_relations(cfg)
    gold = inv.load_gold_lexicon(_require_config_path(cfg, "gold_lexicon"), gold_relations)
    gold = inv.restrict_gold(gold, freqs, cfg.min_freq)
    if not gold:
        raise _NoGoldPair(
            f"gold lexicon is empty after applying the frequency threshold {cfg.min_freq}"
        )
    induced = _load_induced_relations(cfg)
    relation_map = _load_relation_map(cfg, induced, gold_relations)
    report = ev.evaluate(ranked, gold, relation_map)
    ev.write_eval_report(report, _out(cfg, "eval_report"))
    return {
        "relevant_retrieved": report.relevant_retrieved,
        "total_relevant": report.total_relevant,
    }


def _stage_evidence(
    cfg: PipelineConfig, extra: argparse.Namespace | None, handoff: Handoff
) -> dict[str, int]:
    from fractions import Fraction

    from . import lexicon as lx
    from . import phrasetable as pt

    ranked = lx.read_ranked_lexicon(str(_require(cfg, "lexicon", "build")))
    sites_path = str(_require(cfg, "sites", "extract"))
    if "sites" in handoff:
        rows = handoff.pop("sites")
    else:
        rows = pt.read_sites(sites_path)
    # Only the pairs the sites name are split into tokens; numpy is not loaded.
    fused_path = _require(cfg, "fused_src", "tag")
    tgt_path = _require(cfg, "corpus_tgt", "ingest")
    work = cp.open_token_corpus(str(fused_path), str(tgt_path))
    try:
        sites = lx.group_sites(
            work,
            rows,
            _load_target_inventory(cfg),
            _load_source_inventory(cfg),
            _load_induced_relations(cfg),
        )
    except PipelineError as exc:
        raise PipelineError(f"{sites_path}: {exc}") from exc

    only_dc = getattr(extra, "dc", None) if extra else None
    only_relation = getattr(extra, "relation", None) if extra else None
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


def _stage_report(
    cfg: PipelineConfig, extra: argparse.Namespace | None, handoff: Handoff
) -> dict[str, int]:
    freqs = cp.read_frequency_table(str(_require(cfg, "freqs", "ingest")))
    tgt_inventory = _load_target_inventory(cfg)
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


_STAGE_FUNCS = {
    "ingest": _stage_ingest,
    "tag": _stage_tag,
    "align": _stage_align,
    "extract": _stage_extract,
    "build": _stage_build,
    "eval": _stage_eval,
    "evidence": _stage_evidence,
    "report": _stage_report,
}


def run_stage(
    stage: str,
    cfg: PipelineConfig,
    extra: argparse.Namespace | None = None,
    handoff: Handoff | None = None,
    manifest: dict | None = None,
) -> dict:
    """Run one stage, then record it in the manifest and write that under
    the output directory.

    `handoff` carries what earlier stages of the same run wrote, and takes
    what this stage writes for later ones; without it, the stage reads all
    its inputs from the output directory. `manifest` is the one of the run
    under way; without it, the stage opens one (`open_manifest`)."""
    if stage not in _STAGE_FUNCS:
        raise UsageError(f"unknown stage {stage!r}")
    if manifest is None:
        manifest = open_manifest(cfg)
    started = time.perf_counter()
    rows = _STAGE_FUNCS[stage](cfg, extra, {} if handoff is None else handoff)
    elapsed = time.perf_counter() - started
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
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    if not path:
        raise UsageError(
            f"no config given: pass --config or set ${CONFIG_ENV_VAR}"
        )
    overrides: dict[str, object] = {}
    for key in ("limit", "seed"):
        if getattr(args, key) is not None:
            overrides[key] = getattr(args, key)
    if args.output:
        overrides["output_dir"] = args.output
    cfg = dataclasses.replace(validate_config(path), **overrides)
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
            # been edited, must read them from the output directory.
            handoff: Handoff = {}
            # Every input file is checked before ingest writes anything.
            _tag_source(cfg)
            for key in _INPUT_KEYS:
                if getattr(cfg, key):
                    _require_config_path(cfg, key)
            manifest = open_manifest(cfg)
            for stage in STAGES:
                if stage == "eval" and not cfg.gold_lexicon:
                    skip_eval(cfg, "no gold_lexicon", manifest)
                    continue
                try:
                    run_stage(stage, cfg, args, handoff, manifest)
                except _NoGoldPair:
                    # Evaluation has nothing to score; later stages do not read it.
                    skip_eval(cfg, f"no gold pair at min_freq {cfg.min_freq}", manifest)
        else:
            run_stage(args.command, cfg, args)
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    """The `dclex` command: run `main()` on the command line and exit with
    its code. What the run left is frozen first, so the collections that
    end the interpreter do not walk it; `main` itself leaves the collector
    as it was, for callers that go on running."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
