"""Config validation, stage orchestration, and the command-line entry point."""

import gc
import hashlib
import importlib
import json
import os
import pkgutil
import random
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import dclex
from dclex import cli, fileio, inventory, tagging
from dclex.cli import (
    ARTIFACTS,
    CONFIG_ENV_VAR,
    STAGES,
    PipelineConfig,
    main,
    validate_config,
)
from dclex.alignment import (
    HEURISTICS,
    NULL_TOKEN,
    format_alignments,
    symmetrize,
    train_model1,
    transpose,
    write_alignments,
)
from dclex.corpus import CHUNK_SIZE, Bitext, load_token_corpus
from dclex.errors import UsageError
from dclex.fileio import iter_data_lines
from dclex.tagging import split_fused_token

import planted

README = Path(__file__).resolve().parent.parent / "README.md"


def holds_connective(token, surfaces=frozenset({("zonk",), ("frub",)})):
    """Whether `token` is fused from a source form of the planted corpora."""
    parsed = split_fused_token(token)
    return parsed is not None and parsed[0] in surfaces


def holds_target(tokens, forms=(("blik", "tak"), ("gorp", "nee"))):
    """Whether `tokens` hold a target form of the planted corpora."""
    return any(tuple(tokens[i : i + len(form)]) == form
               for form in forms for i in range(len(tokens)))


def write_config(tmp_path, body):
    path = tmp_path / "pipeline.cfg"
    path.write_text(body, encoding="utf-8")
    return str(path)


def so_config(root, even, odd="so", form="so"):
    """A config in `root` over 200 pairs: odd pairs are `e{a} <odd> e{b}` /
    `f{a} donc f{b}`, even pairs `e{a} <even> e{b}` / `f{a} mais f{b}`, a
    and b drawn by a seeded generator. The one source form, `form`, has the
    default sense Rel, the one induced relation."""
    rng = random.Random(1)
    src, tgt = [], []
    for k in range(200):
        a, b = rng.randrange(50), rng.randrange(50)
        word, fr = (odd, "donc") if k % 2 else (even, "mais")
        src.append(f"e{a} {word} e{b}\n")
        tgt.append(f"f{a} {fr} f{b}\n")
    for name, text in (
        ("corpus.en", "".join(src)),
        ("corpus.fr", "".join(tgt)),
        ("inv.en", f"{form}\n"),
        ("inv.fr", "donc\nmais\n"),
        ("senses.tsv", f"{form}\tRel\n"),
        ("induced.txt", "Rel\n"),
    ):
        (root / name).write_text(text, encoding="utf-8")
    body = (
        f"src_corpus = {root / 'corpus.en'}\ntgt_corpus = {root / 'corpus.fr'}\n"
        f"src_inventory = {root / 'inv.en'}\ntgt_inventory = {root / 'inv.fr'}\n"
        f"default_senses = {root / 'senses.tsv'}\n"
        f"induced_relations = {root / 'induced.txt'}\n"
        f"output_dir = {root / 'out'}\nmin_freq = 1\niterations = 5\n"
    )
    return write_config(root, body)


MINIMAL = """\
src_corpus = corpus.en
tgt_corpus = corpus.fr
src_inventory = inv.en
tgt_inventory = inv.fr
"""


class TestValidateConfig:
    def test_defaults_applied(self, tmp_path):
        cfg = validate_config(write_config(tmp_path, MINIMAL))
        assert cfg.iterations == 5
        assert cfg.min_freq == 50
        assert cfg.heuristic == "grow-diag-final"
        assert cfg.model == "model1"
        assert cfg.use_null is True
        assert cfg.output_dir == "out"

    def test_values_parsed_with_comments(self, tmp_path):
        body = MINIMAL + "iterations = 3  # fewer EM sweeps\nuse_null = no\nseed = 42\n"
        cfg = validate_config(write_config(tmp_path, body))
        assert cfg.iterations == 3
        assert cfg.use_null is False
        assert cfg.seed == 42

    def test_unknown_key_suggests_closest(self, tmp_path):
        path = write_config(tmp_path, MINIMAL + "modle1 = true\n")
        with pytest.raises(UsageError, match="did you mean 'model'"):
            validate_config(path)

    def test_unknown_key_without_close_match(self, tmp_path):
        path = write_config(tmp_path, MINIMAL + "zzqqx = 1\n")
        with pytest.raises(UsageError, match="unknown config key"):
            validate_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_config(tmp_path, MINIMAL + "seed = 1\nseed = 2\n")
        with pytest.raises(UsageError, match="duplicate config key"):
            validate_config(path)

    def test_missing_required_keys_listed(self, tmp_path):
        path = write_config(tmp_path, "src_corpus = a\n")
        with pytest.raises(UsageError, match="tgt_corpus"):
            validate_config(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = write_config(tmp_path, MINIMAL + "just some words\n")
        with pytest.raises(UsageError, match="key = value"):
            validate_config(path)

    def test_type_errors_name_the_key(self, tmp_path):
        path = write_config(tmp_path, MINIMAL + "iterations = five\n")
        with pytest.raises(UsageError, match="'iterations'.*integer"):
            validate_config(path)
        path = write_config(tmp_path, MINIMAL + "use_null = maybe\n")
        with pytest.raises(UsageError, match="'use_null'.*boolean"):
            validate_config(path)
        path = write_config(tmp_path, MINIMAL + "evidence_min_prob = abc\n")
        with pytest.raises(UsageError, match="'evidence_min_prob'.*number"):
            validate_config(path)

    def test_range_checks(self, tmp_path):
        for line, message in [
            ("iterations = 0", "iterations"),
            ("max_phrase_len = 0", "max_phrase_len"),
            ("min_freq = -1", "min_freq"),
            ("evidence_k = 0", "evidence_k"),
            ("heuristic = magic", "heuristic"),
            ("model = model9", "model"),
            ("evidence_min_prob = 1.5", "evidence_min_prob"),
        ]:
            path = write_config(tmp_path, MINIMAL + line + "\n")
            with pytest.raises(UsageError, match=message):
                validate_config(path)

    def test_heuristics_are_those_symmetrize_takes(self, tmp_path):
        # The config spells out the aligner's heuristic names so that
        # validating it does not load the aligner; the two lists must agree.
        for name in HEURISTICS:
            path = write_config(tmp_path, MINIMAL + f"heuristic = {name}\n")
            assert validate_config(path).heuristic == name
        path = write_config(tmp_path, MINIMAL + "heuristic = magic\n")
        with pytest.raises(UsageError) as exc:
            validate_config(path)
        assert f"one of {', '.join(HEURISTICS)};" in str(exc.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(UsageError, match="not found"):
            validate_config(str(tmp_path / "nope.cfg"))

    def test_a_key_with_no_value_is_rejected(self, tmp_path):
        for line in ("output_dir =", "annotations =  # none yet", "iterations ="):
            path = write_config(tmp_path, MINIMAL + line + "\n")
            key = line.split()[0]
            with pytest.raises(UsageError, match=f"config key '{key}' has no value at line 5"):
                validate_config(path)

    def test_readme_artifact_table_names_every_artifact(self):
        text = README.read_text(encoding="utf-8")
        table = re.search(r"### Artifacts\n.*?(\| file .*?)\n\n", text, re.S)[1]
        named = set()
        for row in table.splitlines()[2:]:
            named.update(re.findall(r"`([^`]+)`", row.split("|")[1]))
        assert named == set(ARTIFACTS.values())

    def test_readme_example_names_every_key_at_its_default(self, tmp_path):
        # The README's example config validates, names every key, and shows
        # each knob (a key whose default is a value, not None) at its default.
        block = re.search(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S)[1]
        cfg = validate_config(write_config(tmp_path, block))
        named = {payload.split("=", 1)[0].strip() for _, payload in iter_data_lines(block)}
        assert named == set(PipelineConfig._fields)
        defaults = PipelineConfig._field_defaults
        knobs = [key for key, default in defaults.items() if default is not None]
        assert {key: getattr(cfg, key) for key in knobs} == {key: defaults[key] for key in knobs}

    def test_each_key_parses_as_its_defaults_type(self, tmp_path):
        # "1" is a boolean, an integer or a number by the type of the key's
        # default, and text for a key whose default is text or None, or that
        # has none; `heuristic` and `model` take one of their names.
        kinds = dict.fromkeys(("use_null", "lowercase", "skip_empty"), bool)
        kinds.update(dict.fromkeys(
            ("iterations", "max_phrase_len", "min_freq", "seed", "limit", "evidence_k"), int
        ))
        kinds["evidence_min_prob"] = float
        required = dict(payload.split(" = ") for _, payload in iter_data_lines(MINIMAL))
        for key in PipelineConfig._fields:
            raw = {"heuristic": "union", "model": "model2"}.get(key, "1")
            body = "".join(f"{k} = {v}\n" for k, v in {**required, key: raw}.items())
            value = getattr(validate_config(write_config(tmp_path, body)), key)
            kind = kinds.get(key, str)
            assert type(value) is kind and value == kind(raw), key


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    """A small planted corpus with a completed `run all`."""
    root = tmp_path_factory.mktemp("mini")
    config = planted.generate(
        root, pairs=80, dc_count=20, thresh_count=6, min_freq=5, iterations=3
    )
    code = main(["run", "all", "--config", str(config)])
    assert code == 0
    return root, config


class TestPipelineRuns:
    def test_run_all_produces_all_artifacts(self, mini_run):
        root, _ = mini_run
        out = root / "out"
        for name in (
            "corpus_src",
            "corpus_tgt",
            "freqs",
            "fused_src",
            "align_sym",
            "sites",
            "dc_records",
            "lexicon",
            "eval_report",
            "evidence",
            "table1",
            "manifest",
        ):
            assert (out / ARTIFACTS[name]).is_file(), name
        assert not (out / "phrase_table.txt").exists()

    def test_planted_signal_reaches_lexicon(self, mini_run):
        root, _ = mini_run
        lexicon = (root / "out" / ARTIFACTS["lexicon"]).read_text(encoding="utf-8")
        rows = [line.split("\t") for line in lexicon.splitlines()]
        blik = [row for row in rows if row[0] == "blik tak" and row[1] == "REL_A"]
        assert len(blik) == 1
        assert float(blik[0][2]) > 0.5

    def test_manifest_records_stages_and_inputs(self, mini_run):
        root, _ = mini_run
        manifest = json.loads(
            (root / "out" / ARTIFACTS["manifest"]).read_text(encoding="utf-8")
        )
        assert set(manifest["stages"]) == {
            "ingest", "tag", "align", "extract", "build", "eval", "evidence", "report",
        }
        assert manifest["stages"]["ingest"]["rows"]["pairs"] == 80
        assert manifest["config"]["min_freq"] == 5
        assert any(key.endswith("corpus.en") for key in manifest["inputs"])
        digests = list(manifest["inputs"].values())
        assert all(len(d) == 64 for d in digests)

    def test_manifest_describes_the_current_run(self, tmp_path):
        config = planted.generate(
            tmp_path, pairs=40, dc_count=10, thresh_count=3, min_freq=2, iterations=2
        )
        assert main(["run", "all", "--config", str(config)]) == 0
        path = tmp_path / "out" / ARTIFACTS["manifest"]
        earlier = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps({**earlier, "version": "0.0.9"}), encoding="utf-8")
        # The same corpus under other file names, into the same output directory.
        text = config.read_text(encoding="utf-8")
        for old, new in (("corpus.en", "renamed.en"), ("corpus.fr", "renamed.fr")):
            (tmp_path / old).rename(tmp_path / new)
            text = text.replace(old, new)
        config.write_text(text, encoding="utf-8")
        assert main(["run", "all", "--config", str(config)]) == 0
        manifest = json.loads(path.read_text(encoding="utf-8"))
        assert manifest["version"] == dclex.__version__
        names = (
            "renamed.en", "renamed.fr", "inventory.en", "inventory.fr", "senses.tsv",
            "gold.tsv", "map.tsv", "relations_induced.txt", "relations_gold.txt",
        )
        assert manifest["inputs"] == {
            str(tmp_path / name): hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in names
        }
        # A stage run alone records itself and keeps the other stages.
        assert main(["report", "--config", str(config)]) == 0
        alone = json.loads(path.read_text(encoding="utf-8"))
        assert alone["inputs"] == manifest["inputs"]
        assert set(alone["stages"]) == set(STAGES)
        for stage in set(STAGES) - {"report"}:
            assert alone["stages"][stage] == manifest["stages"][stage]

    @pytest.mark.parametrize("text", ["not json\n", '{"version": "x"}\n'], ids=["text", "no-stages"])
    def test_a_foreign_manifest_is_an_error(self, tmp_path, capsys, text):
        config = planted.generate(
            tmp_path, pairs=40, dc_count=10, thresh_count=3, min_freq=2, iterations=2
        )
        path = tmp_path / "out" / ARTIFACTS["manifest"]
        path.parent.mkdir()
        path.write_text(text, encoding="utf-8")
        for argv in (["run", "all"], *([stage] for stage in STAGES)):
            capsys.readouterr()
            assert main([*argv, "--config", str(config)]) == 1, argv
            assert f"error: {path}: not a dclex manifest" in capsys.readouterr().err
        # Nothing was written.
        assert list(path.parent.iterdir()) == [path]
        assert path.read_text(encoding="utf-8") == text

    def test_align_rows_count_tokens_and_links(self, mini_run):
        root, config = mini_run
        out = root / "out"
        manifest = json.loads((out / ARTIFACTS["manifest"]).read_text(encoding="utf-8"))
        rows = manifest["stages"]["align"]["rows"]
        src_lines = (out / ARTIFACTS["fused_src"]).read_text(encoding="utf-8").splitlines()
        tgt_lines = (out / ARTIFACTS["corpus_tgt"]).read_text(encoding="utf-8").splitlines()
        src = [line.split() for line in src_lines]
        tgt = [line.split() for line in tgt_lines]
        sym = (out / ARTIFACTS["align_sym"]).read_text(encoding="utf-8").split("\n")
        assert (rows["src_tokens"], rows["tgt_tokens"]) == (sum(map(len, src)), sum(map(len, tgt)))
        # Only the pairs that hold a fused source connective and a target
        # occurrence are decoded; the others keep an empty line.
        fused = [k for k, tokens in enumerate(src) if any(map(holds_connective, tokens))]
        decoded = [k for k in fused if holds_target(tgt[k])]
        assert 0 < len(decoded) < len(fused) < len(src)
        assert rows["decoded_pairs"] == len(decoded)
        assert sym[-1] == "" and len(sym) == len(src) + 1
        assert all(sym[k] == "" for k in set(range(len(src))) - set(decoded))
        src_tokens = sum(len(src[k]) for k in decoded)
        tgt_tokens = sum(len(tgt[k]) for k in decoded)
        assert 0 < rows["fwd_links"] <= tgt_tokens
        assert 0 < rows["bwd_links"] <= src_tokens
        assert rows["sym_links"] == sum(len(line.split()) for line in sym)
        # Viterbi links each position at most once.
        assert rows["fwd_null_rate"] == round(1 - rows["fwd_links"] / tgt_tokens, 6)
        assert rows["bwd_null_rate"] == round(1 - rows["bwd_links"] / src_tokens, 6)
        assert 0 <= rows["fwd_null_rate"] < 1 and 0 <= rows["bwd_null_rate"] < 1
        # One t entry per co-occurring (e, f), the NULL word included.
        null = [NULL_TOKEN] if validate_config(str(config)).use_null else []
        for key, sides in (("fwd_t_entries", (src, tgt)), ("bwd_t_entries", (tgt, src))):
            entries = {(e, f) for es, fs in zip(*sides) for e in null + es for f in fs}
            assert rows[key] == len(entries)
        for name in ("alignments.fwd.txt", "alignments.bwd.txt"):
            assert not (out / name).exists()

    def test_align_rows_record_em_log_likelihoods(self, mini_run):
        root, config = mini_run
        out = root / "out"
        manifest = json.loads((out / ARTIFACTS["manifest"]).read_text(encoding="utf-8"))
        rows = manifest["stages"]["align"]["rows"]
        cfg = validate_config(str(config))
        work = load_token_corpus(
            str(out / ARTIFACTS["fused_src"]), str(out / ARTIFACTS["corpus_tgt"])
        )
        fwd = list(work)
        bwd = [(tgt, src) for src, tgt in fwd]
        for key, pairs in (("fwd_log_likelihood", fwd), ("bwd_log_likelihood", bwd)):
            lls = rows[key]
            assert len(lls) == cfg.iterations
            assert all(b >= a for a, b in zip(lls, lls[1:])), lls
            assert lls == list(train_model1(pairs, cfg.iterations, cfg.use_null).log_likelihoods)

    @pytest.mark.parametrize("key, value", [("threads", "3"), ("dump_ttables", "true")])
    def test_retired_key_is_ignored(self, tmp_path, caplog, key, value):
        # Configs written for older versions carry these keys; each is
        # logged, dropped, and recorded nowhere, and changes no output.
        config = planted.generate(
            tmp_path, pairs=300, dc_count=60, thresh_count=20, min_freq=5, iterations=3
        )
        lines = config.read_text(encoding="utf-8").splitlines()
        kept = [line for line in lines if not line.startswith("threads")]
        assert len(kept) == len(lines) - 1
        manifests = []
        outs = []
        for name, body in (("retired", [*kept, f"{key} = {value}"]), ("plain", kept)):
            path = tmp_path / f"{name}.cfg"
            path.write_text("\n".join(body) + "\n", encoding="utf-8")
            out = tmp_path / name
            with caplog.at_level("INFO", logger="dclex.cli"):
                caplog.clear()
                assert main(["run", "all", "--config", str(path), "--output", str(out)]) == 0
            ignored = [r for r in caplog.records if f"'{key}' is ignored" in r.getMessage()]
            assert len(ignored) == (name == "retired")
            manifest = json.loads((out / ARTIFACTS["manifest"]).read_text(encoding="utf-8"))
            for stage in manifest["stages"].values():
                del stage["seconds"]
            assert manifest["config"].pop("output_dir") == str(out)
            assert key not in manifest["config"]
            manifests.append(manifest)
            outs.append(sorted(path.name for path in out.iterdir()))
        assert manifests[0] == manifests[1]
        assert outs[0] == outs[1] == sorted(ARTIFACTS.values())

    def test_artifacts_do_not_depend_on_the_hash_seed(self, tmp_path):
        # Set and dict iteration order changes with PYTHONHASHSEED; none of it
        # may reach an artifact, the numbering of the aligner's slots included.
        config = planted.generate(tmp_path, pairs=CHUNK_SIZE + 300, seed=3)
        outs = [tmp_path / f"hashseed{seed}" for seed in (1, 2)]
        for seed, out in zip((1, 2), outs):
            argv = ["run", "all", "--config", str(config), "--output", str(out)]
            run_python("-m", "dclex", *argv, PYTHONHASHSEED=str(seed))
        names = sorted(path.name for path in outs[0].iterdir())
        assert names == sorted(path.name for path in outs[1].iterdir())
        assert ARTIFACTS["manifest"] in names and ARTIFACTS["align_sym"] in names
        for name in names:
            first, second = ((out / name).read_bytes() for out in outs)
            if name == ARTIFACTS["manifest"]:
                first, second = (json.loads(text) for text in (first, second))
                for manifest in (first, second):
                    manifest["config"].pop("output_dir")
                    for stage in manifest["stages"].values():
                        del stage["seconds"]
            assert first == second, name

    # SHA-256 of artifacts of `run all` on a planted corpus of two chunks,
    # unchanged since links were still Python sets from Viterbi to extract;
    # `align_sym` since align decodes only the pairs that hold both a fused
    # connective and a target occurrence, which the next test checks against
    # decoding them all.
    PINNED = {
        "align_sym": "6f9a745f559cc39e7690044e4916ec01bf8905a205d17c674b2627cf6fbc5b3f",
        "dc_records": "62fef494c2330e061c2e4235e52c6e69f766acd7f91bedcfd680f60275541a9e",
        "lexicon": "96cbb3566e885d880655fb10105928de6177fadf9eb3d84753350e7e2b5e2de2",
        "evidence": "d855bc4449138166ca8789725083f18bb970c98769864a66fcf4ebc27e0d5def",
    }

    def test_run_all_artifacts_are_pinned(self, tmp_path):
        config = planted.generate(tmp_path, pairs=CHUNK_SIZE + 300, seed=3)
        assert main(["run", "all", "--config", str(config)]) == 0
        digests = {
            name: hashlib.sha256((tmp_path / "out" / ARTIFACTS[name]).read_bytes()).hexdigest()
            for name in self.PINNED
        }
        assert digests == self.PINNED

    def test_link_file_is_the_full_decode_of_the_connective_pairs(self, tmp_path):
        config = planted.generate(tmp_path, pairs=CHUNK_SIZE + 300, seed=3)
        assert main(["run", "all", "--config", str(config)]) == 0
        cfg = validate_config(str(config))
        out = tmp_path / "out"
        work = load_token_corpus(
            str(out / ARTIFACTS["fused_src"]), str(out / ARTIFACTS["corpus_tgt"])
        )
        # Both directions trained, every pair decoded, then symmetrized.
        everything = range(len(work))
        forward = train_model1(work, cfg.iterations, cfg.use_null)
        fwd = forward.decode(everything)
        backward = train_model1(Bitext(work.tgt, work.src), cfg.iterations, cfg.use_null)
        bwd = transpose(backward.decode(everything))
        full = format_alignments(symmetrize(fwd, bwd, cfg.heuristic)).split("\n")
        lines = (out / ARTIFACTS["align_sym"]).read_text(encoding="utf-8").split("\n")
        assert len(lines) == len(full) == len(work) + 1
        # Every pair links something in the full decode; a line is kept,
        # and non-empty, exactly when its pair holds both a fused source
        # connective and a target occurrence.
        assert sum(map(bool, full)) == len(work)
        kept = lone = 0
        for k, (src, tgt) in enumerate(work):
            fused = any(map(holds_connective, src))
            if fused and holds_target(tgt):
                assert lines[k] == full[k], k
                kept += 1
            else:
                assert lines[k] == "", k
                lone += fused
        assert 0 < kept < len(work)
        assert lone > 0

    def test_a_lone_connective_pair_is_not_decoded(self, tmp_path):
        # A planted `lone` pair holds `zonk` but no `blik tak`, so it holds
        # no target occurrence and gives no site: its link line is empty,
        # whether align runs in `run all` or alone. Extract on the links of
        # every pair, the lone ones decoded, writes the same sites and records.
        config = planted.generate(
            tmp_path, pairs=300, dc_count=60, thresh_count=20, min_freq=5, iterations=3
        )
        assert main(["run", "all", "--config", str(config)]) == 0
        out, alone = tmp_path / "out", tmp_path / "alone"
        work = load_token_corpus(
            str(out / ARTIFACTS["fused_src"]), str(out / ARTIFACTS["corpus_tgt"])
        )
        lone = [k for k, (src, tgt) in enumerate(work) if "durn" in tgt]
        assert len(lone) == 6
        assert all(any(map(holds_connective, work.src[k])) for k in lone)
        together = {
            name: (out / ARTIFACTS[name]).read_bytes()
            for name in ("align_sym", "sites", "dc_records")
        }
        lines = together["align_sym"].decode("utf-8").split("\n")
        assert [lines[k] for k in lone] == [""] * len(lone)
        shutil.copytree(out, alone)
        (alone / ARTIFACTS["align_sym"]).unlink()
        assert main(["align", "--config", str(config), "--output", str(alone)]) == 0
        assert (alone / ARTIFACTS["align_sym"]).read_bytes() == together["align_sym"]
        cfg = validate_config(str(config))
        everything = range(len(work))
        forward = train_model1(work, cfg.iterations, cfg.use_null)
        backward = train_model1(Bitext(work.tgt, work.src), cfg.iterations, cfg.use_null)
        full = symmetrize(
            forward.decode(everything), transpose(backward.decode(everything)), cfg.heuristic
        )
        assert all(full.pair(k) for k in lone)
        write_alignments(full, alone / ARTIFACTS["align_sym"])
        assert main(["extract", "--config", str(config), "--output", str(alone)]) == 0
        for name in ("sites", "dc_records"):
            assert (alone / ARTIFACTS[name]).read_bytes() == together[name], name

    def test_run_all_without_a_fused_connective_writes_empty_links(self, tmp_path):
        # Every annotation reads its span as non-discourse, so no pair holds
        # a fused connective: no pair is decoded, and the run goes on.
        config = planted.generate(
            tmp_path, pairs=40, dc_count=10, thresh_count=3, min_freq=2, iterations=2
        )
        lines = (tmp_path / "corpus.en").read_text(encoding="utf-8").splitlines()
        tokens = [line.split() for line in lines]
        rows = [
            f"{k}\t{i}\t{i}\t{token}\t\t0"
            for k, sentence in enumerate(tokens)
            for i, token in enumerate(sentence)
            if token in ("zonk", "frub")
        ]
        annotations = tmp_path / "annotations.tsv"
        annotations.write_text("\n".join(rows) + "\n", encoding="utf-8")
        config.write_text(
            config.read_text(encoding="utf-8") + f"annotations = {annotations}\n", encoding="utf-8"
        )
        assert main(["run", "all", "--config", str(config)]) == 0
        out = tmp_path / "out"
        assert (out / ARTIFACTS["align_sym"]).read_text(encoding="utf-8") == "\n" * 40
        manifest = json.loads((out / ARTIFACTS["manifest"]).read_text(encoding="utf-8"))
        rows = manifest["stages"]["align"]["rows"]
        assert rows["decoded_pairs"] == rows["sym_links"] == rows["fwd_links"] == 0
        assert rows["fwd_null_rate"] is None and rows["bwd_null_rate"] is None
        assert (out / ARTIFACTS["sites"]).read_text(encoding="utf-8") == ""
        assert set(manifest["stages"]) == set(STAGES)

    @pytest.mark.parametrize("variant", ["cased", "annotated", "model2"])
    def test_run_all_equals_each_stage_run_alone(self, tmp_path, variant):
        # One rule (`cli._REGISTRY`): `run all` hands every artifact
        # a later stage reads on in memory, and each stage alone reads it
        # from the output directory through the one reader its table names.
        # An empty line pair leaves a gap in the input line numbers, which
        # the token files and the annotations do not have.
        config = planted.generate(
            tmp_path, pairs=300, dc_count=60, thresh_count=20, min_freq=5, iterations=3
        )
        corpus = {}
        for name in ("corpus.en", "corpus.fr"):
            lines = (tmp_path / name).read_text(encoding="utf-8").splitlines()
            lines.insert(7, "")
            corpus[name] = lines
        extra = ""
        if variant == "cased":
            # Case reaches the token files and is lowercased only to match.
            for lines in corpus.values():
                lines[::3] = [line.title() for line in lines[::3]]
            extra = "lowercase = false\n"
        elif variant == "model2":
            # Model 2 derives the q slots of the pairs it trains and decodes.
            extra = "model = model2\n"
        else:
            # Sentence k of the annotations is line k of the token files.
            tokens = [line.split() for line in corpus["corpus.en"] if line]
            rows = [
                f"{k}\t{i}\t{i}\t{token}\t" + ("REL_A\t1" if token == "zonk" else "\t0")
                for k, sentence in enumerate(tokens)
                for i, token in enumerate(sentence)
                if token in ("zonk", "frub")
            ]
            annotations = tmp_path / "annotations.tsv"
            annotations.write_text("\n".join(rows) + "\n", encoding="utf-8")
            extra = f"annotations = {annotations}\n"
        for name, lines in corpus.items():
            (tmp_path / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
        config.write_text(config.read_text(encoding="utf-8") + extra, encoding="utf-8")

        out = tmp_path / "out"
        runs = []
        for argvs in ([["run", "all"]], [[stage] for stage in STAGES]):
            if out.exists():
                shutil.rmtree(out)
            for argv in argvs:
                assert main([*argv, "--config", str(config)]) == 0, argv
            runs.append({path.name: path.read_bytes() for path in out.iterdir()})
        together, alone = runs
        assert sorted(together) == sorted(alone)
        manifests = [json.loads(run.pop(ARTIFACTS["manifest"])) for run in runs]
        for manifest in manifests:
            for stage in manifest["stages"].values():
                del stage["seconds"]
        assert manifests[0] == manifests[1]
        assert together == alone
        assert manifests[0]["stages"]["ingest"]["rows"]["pairs"] == 300
        assert b"__zonk" in together[ARTIFACTS["evidence"]]

    def test_run_all_hashes_each_input_once(self, tmp_path, monkeypatch):
        # One call reads the manifest and hashes the inputs once; each stage
        # run alone is its own call. Both write the same manifest.
        config = planted.generate(tmp_path, pairs=80, dc_count=20, thresh_count=6, min_freq=5)
        calls: Counter = Counter()
        digest = cli.sha256_file

        def counted(path):
            calls[str(path)] += 1
            return digest(path)

        monkeypatch.setattr(cli, "sha256_file", counted)
        manifests = []
        for argvs, times in (([["run", "all"]], 1), ([[stage] for stage in STAGES], len(STAGES))):
            out = tmp_path / "out"
            if out.exists():
                shutil.rmtree(out)
            calls.clear()
            for argv in argvs:
                assert main([*argv, "--config", str(config)]) == 0, argv
            manifest = json.loads((out / ARTIFACTS["manifest"]).read_text(encoding="utf-8"))
            assert len(manifest["inputs"]) == 9
            assert calls == {path: times for path in manifest["inputs"]}
            for stage in manifest["stages"].values():
                stage.pop("seconds", None)
            manifests.append(manifest)
        assert manifests[0] == manifests[1]
        assert manifests[0]["stages"]["eval"]["rows"]["total_relevant"] == 1

    def test_each_table_is_loaded_once_per_command(self, tmp_path, monkeypatch):
        # `run all` loads every table its stages read once, before ingest
        # writes, and hands it to them; a stage run alone loads its own.
        config = planted.generate(tmp_path, pairs=80, dc_count=20, thresh_count=6, min_freq=5)
        calls: Counter = Counter()
        for name in ("load_connective_inventory", "load_relation_inventory",
                     "load_default_senses", "load_gold_lexicon", "load_relation_map"):
            def counted(path, *args, load=getattr(inventory, name)):
                calls[Path(path).name] += 1
                return load(path, *args)

            monkeypatch.setattr(inventory, name, counted)
        tables = {
            "ingest": ["inventory.fr"],
            "tag": ["inventory.en", "senses.tsv"],
            "align": ["inventory.en", "inventory.fr", "relations_induced.txt"],
            "extract": ["inventory.en", "inventory.fr", "relations_induced.txt"],
            "build": [],
            "eval": ["gold.tsv", "map.tsv", "relations_gold.txt", "relations_induced.txt"],
            "evidence": ["inventory.en", "inventory.fr", "relations_induced.txt"],
            "report": ["inventory.fr"],
        }
        assert main(["run", "all", "--config", str(config)]) == 0
        assert calls == dict.fromkeys(set().union(*tables.values()), 1)
        assert sum(calls.values()) == 7
        for stage, names in tables.items():
            calls.clear()
            assert main([stage, "--config", str(config)]) == 0, stage
            assert calls == dict.fromkeys(names, 1), stage
        # Tag reads its tags from `annotations`, when set, and of the tables
        # only the source inventory, to check that their senses read back.
        lines = (tmp_path / "corpus.en").read_text(encoding="utf-8").splitlines()
        annotations = tmp_path / "annotations.tsv"
        annotations.write_text("".join(
            f"{k}\t{i}\t{i}\t{token}\tREL_A\t1\n"
            for k, line in enumerate(lines) for i, token in enumerate(line.split())
            if token == "zonk"
        ), encoding="utf-8")
        with config.open("a", encoding="utf-8") as f:
            f.write(f"annotations = {annotations}\n")
        calls.clear()
        assert main(["tag", "--config", str(config)]) == 0
        assert calls == {"inventory.en": 1}
        calls.clear()
        assert main(["run", "all", "--config", str(config)]) == 0
        assert sum(calls.values()) == 6 and "senses.tsv" not in calls

    def test_each_stage_reads_the_artifacts_its_table_lists(self, tmp_path, monkeypatch):
        # `cli._REGISTRY` lists what each stage reads that another
        # makes: a fresh `run all` hands all of it on in memory and reads
        # back none of its artifacts, a stage run alone reads exactly the
        # files of its readers, and after each stage the hand-over holds
        # only what a later stage of the same command reads.
        config = planted.generate(tmp_path, pairs=80, dc_count=20, thresh_count=6, min_freq=5)
        out = tmp_path / "out"
        reads: Counter = Counter()
        strict = fileio.read_text_strict

        def counted(path):
            if Path(path).parent == out and Path(path).name != ARTIFACTS["manifest"]:
                reads[Path(path).name] += 1
            return strict(path)

        # Every module of the package that binds the reader; `__main__` would run the CLI.
        for info in pkgutil.iter_modules(dclex.__path__):
            if info.name == "__main__":
                continue
            module = importlib.import_module(f"dclex.{info.name}")
            if getattr(module, "read_text_strict", None) is strict:
                monkeypatch.setattr(module, "read_text_strict", counted)
        held = {}
        run_stage = cli.run_stage

        def recorded(stage, cfg, handoff=None, manifest=None):
            rows = run_stage(stage, cfg, handoff, manifest)
            held[stage] = set(handoff.made)
            return rows

        monkeypatch.setattr(cli, "run_stage", recorded)
        files = {
            "ingest": [],
            "tag": ["corpus_src", "corpus_tgt"],
            "align": ["fused_src", "corpus_tgt"],
            "extract": ["fused_src", "corpus_tgt", "align_sym"],
            "build": ["dc_records", "freqs"],
            "eval": ["lexicon", "freqs"],
            "evidence": ["lexicon", "sites", "fused_src", "corpus_tgt"],
            "report": ["freqs"],
        }
        # Ingest's corpus goes after tag, the links and occurrences after
        # extract, tag's work pairs after evidence.
        kept = {
            "ingest": {"corpus", "freqs", "occurrences"},
            "tag": {"work", "freqs", "occurrences"},
            "align": {"work", "freqs", "occurrences", "links"},
            "extract": {"work", "freqs", "sites", "records"},
            "build": {"work", "freqs", "sites", "lexicon"},
            "eval": {"work", "freqs", "sites", "lexicon"},
            "evidence": {"freqs"},
            "report": set(),
        }
        assert main(["run", "all", "--config", str(config)]) == 0
        assert reads == {}
        assert held == kept
        for k, stage in enumerate(STAGES):
            readers = cli._REGISTRY[stage].reads
            assert {file for names, _ in readers.values() for file in names} == set(files[stage])
            later = {
                name for after in STAGES[k + 1 :] for name in cli._REGISTRY[after].reads
            }
            assert kept[stage] <= later
            reads.clear()
            assert main([stage, "--config", str(config)]) == 0, stage
            assert reads == {ARTIFACTS[name]: 1 for name in files[stage]}, stage
            assert held[stage] == set(), stage

    def test_each_stage_writes_exactly_the_files_it_declares(self, tmp_path):
        # `cli._REGISTRY` declares the artifact files each stage writes:
        # `run all` leaves those of all stages and the manifest, and each
        # stage run alone after it rewrites its own and the manifest only.
        config = planted.generate(tmp_path, pairs=80, dc_count=20, thresh_count=6, min_freq=5)
        out = tmp_path / "out"
        assert main(["run", "all", "--config", str(config)]) == 0

        def written(*stages):
            return {ARTIFACTS[name] for stage in stages for name in cli._REGISTRY[stage].writes}

        def stamps():
            # A write renames a new file into place, so it gives a new inode.
            return {path.name: (path.stat().st_ino, path.stat().st_mtime_ns)
                    for path in out.iterdir()}

        assert set(stamps()) == written(*STAGES) | {ARTIFACTS["manifest"]}
        for stage in STAGES:
            before = stamps()
            assert main([stage, "--config", str(config)]) == 0, stage
            after = stamps()
            changed = {name for name, stamp in after.items() if before.get(name) != stamp}
            assert changed == written(stage) | {ARTIFACTS["manifest"]}, stage

    def test_the_annotations_are_parsed_once_per_command(self, tmp_path, monkeypatch):
        # `run all` checks the annotations before ingest writes, and tag
        # checks the same records against the corpus without parsing again.
        config = planted.generate(tmp_path, pairs=80, dc_count=20, thresh_count=6, min_freq=5)
        lines = (tmp_path / "corpus.en").read_text(encoding="utf-8").splitlines()
        annotations = tmp_path / "annotations.tsv"
        annotations.write_text("".join(
            f"{k}\t{i}\t{i}\t{token}\tREL_A\t1\n"
            for k, line in enumerate(lines) for i, token in enumerate(line.split())
            if token == "zonk"
        ), encoding="utf-8")
        with config.open("a", encoding="utf-8") as f:
            f.write(f"annotations = {annotations}\n")
        parses = []

        def counted(path, parse=tagging._records):
            parses.append(path)
            return parse(path)

        monkeypatch.setattr(tagging, "_records", counted)
        for argv in (["run", "all"], ["tag"]):
            parses.clear()
            assert main([*argv, "--config", str(config)]) == 0
            assert parses == [str(annotations)], argv

    def test_tag_alone_needs_a_default_sense_only_for_the_forms_it_finds(self, tmp_path, capsys):
        # `run all` needs a sense for every source form, as
        # `test_run_all_checks_the_tag_inputs_before_ingest_writes` shows;
        # tag alone only for the forms the corpus holds.
        config = planted.generate(
            tmp_path, pairs=40, dc_count=10, thresh_count=3, min_freq=2, iterations=2
        )
        (tmp_path / "inventory.en").write_text("zonk\nfrub\nplonk\n", encoding="utf-8")
        assert main(["ingest", "--config", str(config)]) == 0
        assert main(["tag", "--config", str(config)]) == 0
        fused = (tmp_path / "out" / ARTIFACTS["fused_src"]).read_text(encoding="utf-8")
        assert "zonk-REL_A" in fused and "frub-REL_B" in fused
        (tmp_path / "senses.tsv").write_text("zonk\tREL_A\n", encoding="utf-8")
        assert main(["tag", "--config", str(config)]) == 1
        assert "error: no default sense for connective 'frub'" in capsys.readouterr().err

    def test_extract_counts_the_occurrences_behind_freqs(self, mini_run):
        root, _ = mini_run
        out = root / "out"
        manifest = json.loads((out / ARTIFACTS["manifest"]).read_text(encoding="utf-8"))
        rows = manifest["stages"]["extract"]["rows"]
        freqs = (out / ARTIFACTS["freqs"]).read_text(encoding="utf-8").splitlines()
        assert rows["occurrences"] == sum(int(line.split("\t")[1]) for line in freqs)
        assert 0 < rows["aligned"] <= rows["occurrences"]
        records = (out / ARTIFACTS["dc_records"]).read_text(encoding="utf-8").splitlines()
        assert rows["dc_records"] == len(records)
        assert rows["aligned"] == sum(int(line.split("\t")[3]) for line in records)

    def test_sites_aggregate_to_dc_records(self, mini_run):
        root, _ = mini_run
        out = root / "out"
        src = (out / ARTIFACTS["fused_src"]).read_text(encoding="utf-8").splitlines()
        tgt = (out / ARTIFACTS["corpus_tgt"]).read_text(encoding="utf-8").splitlines()
        counts = Counter()
        for line in (out / ARTIFACTS["sites"]).read_text(encoding="utf-8").splitlines():
            k, i, start, end = map(int, line.split("\t"))
            surface, relation = split_fused_token(src[k].split()[i])
            fr_dc = " ".join(tgt[k].split()[start : end + 1]).lower()
            counts[f"{fr_dc}\t{' '.join(surface)}\t{relation}"] += 1
        records = (out / ARTIFACTS["dc_records"]).read_text(encoding="utf-8").splitlines()
        assert sorted(f"{key}\t{count}" for key, count in counts.items()) == records
        manifest = json.loads((out / ARTIFACTS["manifest"]).read_text(encoding="utf-8"))
        assert sum(counts.values()) == manifest["stages"]["extract"]["rows"]["aligned"] > 0

    def test_extract_counts_only_accepted_fused_tokens(self, tmp_path):
        # "albeit" is not a source inventory form: its fused token makes no
        # record, and the occurrence it is linked to is not aligned.
        out = tmp_path / "out"
        out.mkdir()
        for name, text in (
            ("fused_src", "although-Comparison.Concession\nalbeit-Comparison.Concession\n"),
            ("corpus_tgt", "bien que\nbien que\n"),
            ("align_sym", "0-0 0-1\n0-0 0-1\n"),
        ):
            (out / ARTIFACTS[name]).write_text(text, encoding="utf-8")
        (tmp_path / "inv.en").write_text("although\n", encoding="utf-8")
        (tmp_path / "inv.fr").write_text("bien que\n", encoding="utf-8")
        body = (
            f"src_corpus = {tmp_path / 'corpus.en'}\ntgt_corpus = {tmp_path / 'corpus.fr'}\n"
            f"src_inventory = {tmp_path / 'inv.en'}\ntgt_inventory = {tmp_path / 'inv.fr'}\n"
            f"output_dir = {out}\n"
        )
        assert main(["extract", "--config", write_config(tmp_path, body)]) == 0
        manifest = json.loads((out / ARTIFACTS["manifest"]).read_text(encoding="utf-8"))
        rows = manifest["stages"]["extract"]["rows"]
        assert rows == {"occurrences": 2, "aligned": 1, "dc_records": 1}
        records = (out / ARTIFACTS["dc_records"]).read_text(encoding="utf-8")
        assert records == "bien que\talthough\tComparison.Concession\t1\n"
        assert (out / ARTIFACTS["sites"]).read_text(encoding="utf-8") == "0\t0\t0\t1\n"

    def test_table1_distribution(self, mini_run, tmp_path, capsys):
        root, config = mini_run
        code = main(["report", "--config", str(config)])
        assert code == 0
        out = capsys.readouterr().out
        # Both target connectives clear the min_freq=5 bar in this corpus.
        assert "=0\t<5\t>=5\ttotal" in out
        assert "0\t0\t2\t2" in out
        # A target form that never occurs counts in the `=0` column.
        inventory = tmp_path / "inventory.fr"
        inventory.write_text("blik tak\ngorp nee\nnix da\n", encoding="utf-8")
        text = config.read_text(encoding="utf-8")
        edited = write_config(tmp_path, text.replace(str(root / "inventory.fr"), str(inventory)))
        shutil.copytree(root / "out", tmp_path / "out")
        assert main(["report", "--config", edited, "--output", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out == "=0\t<5\t>=5\ttotal\n1\t0\t2\t3\n"

    def test_evidence_filter_by_connective(self, mini_run):
        root, config = mini_run
        code = main(
            ["evidence", "--config", str(config), "--dc", "blik tak", "--relation", "REL_A"]
        )
        assert code == 0
        text = (root / "out" / ARTIFACTS["evidence"]).read_text(encoding="utf-8")
        assert "__blik tak__" in text
        assert "REL_B" not in text

    def test_filtered_evidence_draws_the_run_all_sample(self, tmp_path):
        # blik tak/REL_A ranks second with 18 sites, more than evidence_k = 5,
        # so its sample depends on the seed its rank gives it.
        config = planted.generate(
            tmp_path, pairs=80, dc_count=20, thresh_count=6, min_freq=5, iterations=3
        )
        assert main(["run", "all", "--config", str(config)]) == 0
        out = tmp_path / "out"
        ranked = (out / ARTIFACTS["lexicon"]).read_text(encoding="utf-8").splitlines()
        assert ranked[1].split("\t")[:2] == ["blik tak", "REL_A"]
        full = (out / ARTIFACTS["evidence"]).read_text(encoding="utf-8")
        argv = ["evidence", "--config", str(config), "--dc", "blik tak", "--relation", "REL_A"]
        assert main(argv) == 0
        block = (out / ARTIFACTS["evidence"]).read_text(encoding="utf-8")
        assert block.startswith("# blik tak\tREL_A\t")
        assert block.count("\nFR: ") == 5
        assert block in full

    def test_evidence_alone_reads_sites_and_leaves_numpy_unloaded(self, tmp_path):
        config = planted.generate(
            tmp_path, pairs=80, dc_count=20, thresh_count=6, min_freq=5, iterations=3
        )
        assert main(["run", "all", "--config", str(config)]) == 0
        evidence = tmp_path / "out" / ARTIFACTS["evidence"]
        full = evidence.read_bytes()
        evidence.unlink()
        code = "import sys, dclex.cli; print(dclex.cli.main(sys.argv[1:]), 'numpy' in sys.modules)"
        done = run_python("-c", code, "evidence", "--config", str(config))
        assert done.stdout == "0 False\n"
        assert evidence.read_bytes() == full

    def test_build_eval_and_report_alone_leave_numpy_unloaded(self, tmp_path):
        # Only the stages up to extract need numpy; these read text artifacts.
        # Only align and extract load the aligner, and report loads none of
        # the modules that tag, make or score the lexicon. No record is a
        # dataclass, so none of them loads `dataclasses` or its `inspect`.
        config = planted.generate(
            tmp_path, pairs=80, dc_count=20, thresh_count=6, min_freq=5, iterations=3
        )
        assert main(["run", "all", "--config", str(config)]) == 0
        code = (
            "import sys, dclex.cli; print(dclex.cli.main(sys.argv[1:]), "
            "sorted({'numpy', 'dclex.alignment', 'dclex.phrasetable', 'dclex.lexicon', "
            "'dclex.evaluation', 'dclex.tagging', 'dataclasses', 'inspect'} & set(sys.modules)))"
        )
        loaded = {
            "build": "['dclex.lexicon', 'dclex.phrasetable', 'dclex.tagging']",
            "eval": "['dclex.evaluation', 'dclex.lexicon', 'dclex.phrasetable', 'dclex.tagging']",
            "evidence": "['dclex.lexicon', 'dclex.phrasetable', 'dclex.tagging']",
            "report": "[]",
        }
        for stage, modules in loaded.items():
            done = run_python("-c", code, stage, "--config", str(config))
            assert done.stdout.splitlines()[-1] == f"0 {modules}", stage

    def test_evidence_rejects_sites_that_do_not_fit_the_corpus(self, tmp_path, capsys):
        config = planted.generate(
            tmp_path, pairs=80, dc_count=20, thresh_count=6, min_freq=5, iterations=3
        )
        assert main(["run", "all", "--config", str(config)]) == 0
        sites = tmp_path / "out" / ARTIFACTS["sites"]
        lines = sites.read_text(encoding="utf-8").splitlines()
        rows = [list(map(int, line.split("\t"))) for line in lines]
        for shift in ((1, 0, 0, 0), (0, 0, 1, 1)):  # the pair id, the target span
            shifted = ["\t".join(str(a + b) for a, b in zip(row, shift)) + "\n" for row in rows]
            sites.write_text("".join(shifted), encoding="utf-8")
            assert main(["evidence", "--config", str(config)]) == 1
            assert f"error: {sites}: site " in capsys.readouterr().err

    def test_limit_override_truncates_ingest(self, mini_run, tmp_path):
        root, config = mini_run
        code = main(
            [
                "ingest",
                "--config",
                str(config),
                "--limit",
                "10",
                "--output",
                str(tmp_path / "limited"),
            ]
        )
        assert code == 0
        manifest = json.loads(
            (tmp_path / "limited" / ARTIFACTS["manifest"]).read_text(encoding="utf-8")
        )
        assert manifest["stages"]["ingest"]["rows"]["pairs"] == 10

    def test_eval_before_build_names_the_missing_stage(self, mini_run, tmp_path, capsys):
        root, config = mini_run
        code = main(
            ["eval", "--config", str(config), "--output", str(tmp_path / "fresh")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "run the `build` stage first" in err

    def test_run_all_without_gold_lexicon_skips_eval(self, tmp_path, capsys):
        config = planted.generate(
            tmp_path, pairs=40, dc_count=10, thresh_count=3, min_freq=2, iterations=2
        )
        lines = config.read_text(encoding="utf-8").splitlines()
        config.write_text(
            "\n".join(line for line in lines if not line.startswith("gold_lexicon")) + "\n",
            encoding="utf-8",
        )
        assert main(["run", "all", "--config", str(config)]) == 0
        out = tmp_path / "out"
        manifest = json.loads((out / ARTIFACTS["manifest"]).read_text(encoding="utf-8"))
        assert manifest["stages"]["eval"] == {"skipped": "no gold_lexicon"}
        assert {"evidence", "report"} <= set(manifest["stages"])
        assert not (out / ARTIFACTS["eval_report"]).exists()
        assert (out / ARTIFACTS["evidence"]).is_file()
        assert (out / ARTIFACTS["table1"]).is_file()
        # Eval run alone has no lexicon to score against and fails.
        capsys.readouterr()
        assert main(["eval", "--config", str(config)]) == 2
        assert "config key 'gold_lexicon' is required by this stage" in capsys.readouterr().err

    def test_run_all_without_a_gold_pair_at_min_freq_skips_eval(self, tmp_path, capsys):
        config = planted.generate(
            tmp_path, pairs=40, dc_count=10, thresh_count=3, min_freq=1000, iterations=2
        )
        assert main(["run", "all", "--config", str(config)]) == 0
        out = tmp_path / "out"
        manifest = json.loads((out / ARTIFACTS["manifest"]).read_text(encoding="utf-8"))
        assert manifest["stages"]["eval"] == {"skipped": "no gold pair at min_freq 1000"}
        assert {"evidence", "report"} <= set(manifest["stages"])
        assert not (out / ARTIFACTS["eval_report"]).exists()
        assert (out / ARTIFACTS["evidence"]).is_file()
        assert (out / ARTIFACTS["table1"]).is_file()
        capsys.readouterr()
        assert main(["eval", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "gold lexicon is empty after applying the frequency threshold 1000" in err

    def test_run_all_skipping_eval_removes_an_earlier_report(self, tmp_path):
        # An earlier run's report beside this run's lexicon would read as
        # this run's evaluation.
        config = planted.generate(
            tmp_path, pairs=40, dc_count=10, thresh_count=3, min_freq=2, iterations=2
        )
        text = config.read_text(encoding="utf-8")
        report = tmp_path / "out" / ARTIFACTS["eval_report"]
        for edited, skipped in (
            (text.replace("min_freq = 2\n", "min_freq = 1000\n"), "no gold pair at min_freq 1000"),
            ("".join(line for line in text.splitlines(True) if not line.startswith("gold_lexicon")),
             "no gold_lexicon"),
        ):
            config.write_text(text, encoding="utf-8")
            assert main(["run", "all", "--config", str(config)]) == 0
            assert report.is_file()
            config.write_text(edited, encoding="utf-8")
            assert main(["run", "all", "--config", str(config)]) == 0
            manifest = json.loads((tmp_path / "out" / ARTIFACTS["manifest"]).read_text(encoding="utf-8"))
            assert manifest["stages"]["eval"] == {"skipped": skipped}
            assert not report.exists()

    def test_run_all_checks_the_tag_inputs_before_ingest_writes(self, tmp_path, capsys):
        config = planted.generate(
            tmp_path, pairs=40, dc_count=10, thresh_count=3, min_freq=2, iterations=2
        )
        text = config.read_text(encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", "all", "--config", str(config)]) == 0
        earlier = {path.name: (path.read_bytes(), path.stat().st_mtime_ns) for path in out.iterdir()}
        ghost = tmp_path / "ghost.tsv"

        def without(*keys):
            return "".join(line for line in text.splitlines(True) if line.split(" ")[0] not in keys)

        no_senses = without("default_senses")
        # A source form whose default sense is no induced label, though the
        # form never occurs in the corpus.
        (tmp_path / "plonk.en").write_text("zonk\nfrub\nplonk\n", encoding="utf-8")
        (tmp_path / "plonk.tsv").write_text("zonk\tREL_A\nfrub\tREL_B\nplonk\tREL_C\n", encoding="utf-8")
        plonk = text.replace("inventory.en", "plonk.en").replace("senses.tsv", "plonk.tsv")
        # Senses for some source forms only: tag would fail on frub, which
        # occurs; plonk, which never occurs, needs a sense too.
        (tmp_path / "zonk.tsv").write_text("zonk\tREL_A\n", encoding="utf-8")
        for edited, code, message in (
            (no_senses, 2, "the tag stage needs either 'annotations' or 'default_senses' configured"),
            (text.replace("senses.tsv", ghost.name), 2, "config key 'default_senses': file not found"),
            (no_senses + f"annotations = {ghost}\n", 2, "config key 'annotations': file not found"),
            (text.replace("inventory.en", ghost.name), 2, "config key 'src_inventory': file not found"),
            (text.replace("inventory.fr", ghost.name), 2, "config key 'tgt_inventory': file not found"),
            (text.replace("gold.tsv", ghost.name), 2, "config key 'gold_lexicon': file not found"),
            (text.replace("map.tsv", ghost.name), 2, "config key 'relation_map': file not found"),
            # Labels that do not match across tables, each found by a stage
            # that ran after earlier stages had written.
            (
                without("relation_map"),
                1,
                "relation_map.tsv: unknown induced label 'Contingency.Condition' at line 2",
            ),
            (
                without("relation_map", "gold_relations"),
                1,
                "gold.tsv: unknown relation label 'GOLD_A' at line 1",
            ),
            (
                without("relation_map", "induced_relations"),
                1,
                "malformed fused token 'zonk-REL_A': unknown relation label 'REL_A'",
            ),
            (plonk, 1, "malformed fused token 'plonk-REL_C': unknown relation label 'REL_C'"),
            (text.replace("senses.tsv", "zonk.tsv"), 1, "no default sense for connective 'frub'"),
            (text.replace("inventory.en", "plonk.en"), 1, "no default sense for connective 'plonk'"),
        ):
            config.write_text(edited, encoding="utf-8")
            capsys.readouterr()
            assert main(["run", "all", "--config", str(config)]) == code
            assert message in capsys.readouterr().err
            # The earlier run's files are left as they were, and nothing is added.
            assert earlier == {
                path.name: (path.read_bytes(), path.stat().st_mtime_ns) for path in out.iterdir()
            }
            fresh = tmp_path / "fresh"
            assert main(["run", "all", "--config", str(config), "--output", str(fresh)]) == code
            assert not fresh.exists()
        # Tag run alone keeps its own check.
        config.write_text(no_senses, encoding="utf-8")
        capsys.readouterr()
        assert main(["tag", "--config", str(config)]) == 2
        assert "needs either 'annotations' or 'default_senses'" in capsys.readouterr().err

    def test_run_all_checks_the_annotation_labels_before_ingest_writes(self, tmp_path, capsys):
        # A label missing from the induced relations used to stop extract,
        # after ingest, tag and align had written.
        config = planted.generate(
            tmp_path, pairs=300, dc_count=60, thresh_count=20, min_freq=5, iterations=3
        )
        lines = (tmp_path / "corpus.en").read_text(encoding="utf-8").splitlines()
        tokens = [line.split() for line in lines]
        rows = [
            f"{k}\t{i}\t{i}\t{token}\t" + ("REL_X\t1" if token == "zonk" else "REL_B\t1")
            for k, sentence in enumerate(tokens)
            for i, token in enumerate(sentence)
            if token in ("zonk", "frub")
        ]
        annotations = tmp_path / "annotations.tsv"
        annotations.write_text("\n".join(rows) + "\n", encoding="utf-8")
        config.write_text(
            config.read_text(encoding="utf-8") + f"annotations = {annotations}\n", encoding="utf-8"
        )
        assert main(["run", "all", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "malformed fused token 'zonk-REL_X': unknown relation label 'REL_X'" in err
        assert not (tmp_path / "out").exists()

    def test_a_hyphenated_word_headed_by_a_source_form_is_a_plain_word(self, tmp_path):
        # "so-called" splits at its '-' into the source form "so" and
        # "called", which is no induced label: it is a plain word, as
        # "socalled" is, and used to stop extract as a malformed fused token.
        names = ("align_sym", "sites", "dc_records", "lexicon")
        artifacts = []
        for word in ("so-called", "socalled"):
            root = tmp_path / word
            root.mkdir()
            assert main(["run", "all", "--config", so_config(root, word)]) == 0, word
            out = root / "out"
            manifest = json.loads((out / ARTIFACTS["manifest"]).read_text(encoding="utf-8"))
            assert manifest["stages"]["align"]["rows"]["decoded_pairs"] == 100
            artifacts.append({name: (out / ARTIFACTS[name]).read_bytes() for name in names})
        assert artifacts[0] == artifacts[1]
        lexicon = artifacts[0]["lexicon"].decode("utf-8").splitlines()
        assert "donc\tRel\t1.000000\t100\t100" in lexicon

    def test_run_all_rejects_a_sense_whose_fused_token_does_not_read_back(self, tmp_path, capsys):
        # Tag would fuse each "so_that" with Rel into "so_that-Rel", which
        # reads back as "so that": align would decode no pair, and extract
        # count no site.
        config = so_config(tmp_path, "so_that", "so_that", "so_that")
        assert main(["run", "all", "--config", config]) == 1
        err = capsys.readouterr().err
        assert "fused token 'so_that-Rel' does not read back as 'so_that'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("variant", ["senses", "annotated"])
    def test_tag_alone_rejects_a_sense_whose_fused_token_does_not_read_back(
        self, tmp_path, capsys, variant
    ):
        # Tag alone checks what needs no induced label: the fused token of a
        # source form's sense splits back into that form and sense.
        config = Path(so_config(tmp_path, "so_that", "so_that", "so_that"))
        if variant == "annotated":
            lines = (tmp_path / "corpus.en").read_text(encoding="utf-8").splitlines()
            (tmp_path / "annotations.tsv").write_text(
                "".join(f"{k}\t1\t1\tso_that\tRel\t1\n" for k in range(len(lines))),
                encoding="utf-8",
            )
            text = config.read_text(encoding="utf-8").replace("default_senses", "annotations")
            config.write_text(text.replace("senses.tsv", "annotations.tsv"), encoding="utf-8")
        assert main(["ingest", "--config", str(config)]) == 0
        capsys.readouterr()
        assert main(["tag", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "error: fused token 'so_that-Rel' does not read back as 'so_that'" in err
        assert not (tmp_path / "out" / ARTIFACTS["fused_src"]).exists()

    def test_ingest_alone_loads_the_target_inventory_before_it_writes(self, tmp_path, capsys):
        config = planted.generate(
            tmp_path, pairs=40, dc_count=10, thresh_count=3, min_freq=2, iterations=2
        )
        (tmp_path / "inventory.fr").write_text("# no forms\n", encoding="utf-8")
        assert main(["ingest", "--config", str(config)]) == 1
        assert "empty connective inventory" in capsys.readouterr().err
        out = tmp_path / "out"
        assert not (out / ARTIFACTS["corpus_src"]).exists()
        assert not (out / ARTIFACTS["corpus_tgt"]).exists()

    @staticmethod
    def packaged_config(tmp_path):
        """A planted config that sets none of the relation keys, with senses
        and gold labels that the packaged tables hold."""
        config = planted.generate(
            tmp_path, pairs=40, dc_count=10, thresh_count=3, min_freq=2, iterations=2
        )
        text = "".join(
            line
            for line in config.read_text(encoding="utf-8").splitlines(True)
            if line.split(" ")[0] not in ("relation_map", "induced_relations", "gold_relations")
        )
        config.write_text(text, encoding="utf-8")
        (tmp_path / "senses.tsv").write_text(
            "zonk\tComparison.Concession\nfrub\tContingency.Condition\n", encoding="utf-8"
        )
        (tmp_path / "gold.tsv").write_text("blik tak\tConcession\n", encoding="utf-8")
        return config

    def test_run_all_reads_the_packaged_tables_for_unset_keys(self, tmp_path):
        config = self.packaged_config(tmp_path)
        assert main(["run", "all", "--config", str(config)]) == 0
        # The packaged map takes the Concession sense to the gold pair.
        report = (tmp_path / "out" / ARTIFACTS["eval_report"]).read_text(encoding="utf-8")
        assert "relevant_retrieved\t1\ntotal_relevant\t1\n" in report

    def test_the_manifest_hashes_the_packaged_tables_read(self, tmp_path):
        # The packaged tables stand for the unset relation keys, in `run all`
        # and in a stage run alone, so the manifest hashes them as inputs.
        config = self.packaged_config(tmp_path)
        data = Path(cli.__file__).with_name("data")
        packaged = ("relation_map.tsv", "induced_relations.txt", "gold_relations.txt")
        path = tmp_path / "out" / ARTIFACTS["manifest"]
        for argv in (["run", "all"], ["eval"]):
            assert main([*argv, "--config", str(config)]) == 0
            inputs = json.loads(path.read_text(encoding="utf-8"))["inputs"]
            assert len(inputs) == 9
            for name in packaged:
                file = data / name
                assert inputs[str(file)] == hashlib.sha256(file.read_bytes()).hexdigest()

    def test_extract_before_align_names_the_missing_stage(self, mini_run, tmp_path, capsys):
        root, config = mini_run
        out = tmp_path / "half"
        assert main(["ingest", "--config", str(config), "--output", str(out)]) == 0
        assert main(["tag", "--config", str(config), "--output", str(out)]) == 0
        code = main(["extract", "--config", str(config), "--output", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "run the `align` stage first" in err


class TestEntryPoint:
    def test_no_config_anywhere_is_a_usage_error(self, monkeypatch, capsys):
        monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
        code = main(["ingest"])
        assert code == 2
        assert CONFIG_ENV_VAR in capsys.readouterr().err

    def test_config_from_environment(self, monkeypatch, tmp_path):
        config = planted.generate(
            tmp_path, pairs=30, dc_count=8, thresh_count=3, min_freq=2, iterations=2
        )
        monkeypatch.setenv(CONFIG_ENV_VAR, str(config))
        assert main(["ingest"]) == 0
        assert (tmp_path / "out" / ARTIFACTS["freqs"]).is_file()

    def test_flag_overrides_environment(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CONFIG_ENV_VAR, str(tmp_path / "missing.cfg"))
        config = planted.generate(
            tmp_path / "real", pairs=30, dc_count=8, thresh_count=3, min_freq=2, iterations=2
        )
        assert main(["ingest", "--config", str(config)]) == 0

    def test_bad_config_path_is_exit_2(self, tmp_path, capsys):
        code = main(["ingest", "--config", str(tmp_path / "ghost.cfg")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_an_output_path_through_a_file_is_exit_2(self, tmp_path, capsys):
        config = planted.generate(
            tmp_path / "inputs", pairs=30, dc_count=8, thresh_count=3, min_freq=2, iterations=2
        )
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n", encoding="utf-8")
        listing = sorted(tmp_path.rglob("*"))
        for output in (blocker, blocker / "out"):
            for argv in (["run", "all"], ["ingest"]):
                capsys.readouterr()
                assert main([*argv, "--config", str(config), "--output", str(output)]) == 2
                err = capsys.readouterr().err
                assert f"error: cannot make output directory {output}: " in err
                assert blocker.read_text(encoding="utf-8") == "not a directory\n"
                assert sorted(tmp_path.rglob("*")) == listing

    def test_an_artifact_path_that_is_a_directory_is_exit_1(self, tmp_path, capsys):
        # A directory in the way of an artifact, or of the manifest, is a
        # named error, and the temp file written for it is removed.
        config = planted.generate(
            tmp_path, pairs=30, dc_count=8, thresh_count=3, min_freq=2, iterations=2
        )
        assert main(["ingest", "--config", str(config)]) == 0
        out = tmp_path / "out"
        for name in ("table1.tsv", "manifest.json"):
            blocked = out / name
            blocked.unlink(missing_ok=True)
            blocked.mkdir()
            capsys.readouterr()
            assert main(["report", "--config", str(config)]) == 1
            err = capsys.readouterr().err
            assert f"error: cannot write {blocked}: Is a directory" in err
            assert "Traceback" not in err
            assert blocked.is_dir() and not list(blocked.iterdir())
            assert not list(out.glob("*.tmp"))
            blocked.rmdir()

    def test_an_empty_value_or_output_is_exit_2_and_makes_nothing(
        self, tmp_path, monkeypatch, capsys
    ):
        # An empty `src_corpus` used to pass validation and stop ingest after
        # the output directory was made; an empty `output_dir` wrote into the
        # current directory, and `--output ''` was ignored.
        config = planted.generate(
            tmp_path / "inputs", pairs=30, dc_count=8, thresh_count=3, min_freq=2, iterations=2
        )
        text = config.read_text(encoding="utf-8")
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        for key in ("src_corpus", "output_dir"):
            lines = text.splitlines(True)
            lineno = next(k for k, line in enumerate(lines, 1) if line.startswith(f"{key} ="))
            lines[lineno - 1] = f"{key} =\n"
            edited = tmp_path / f"no-{key}.cfg"
            edited.write_text("".join(lines), encoding="utf-8")
            for argv in (["run", "all"], ["ingest"]):
                capsys.readouterr()
                assert main([*argv, "--config", str(edited)]) == 2
                err = capsys.readouterr().err
                assert f"error: {edited}: config key '{key}' has no value at line {lineno}" in err
        for argv in (["run", "all"], ["ingest"]):
            assert main([*argv, "--config", str(config), "--output", ""]) == 2
            assert "error: --output must name a directory, got ''" in capsys.readouterr().err
        assert not (tmp_path / "inputs" / "out").exists()
        assert not list(cwd.iterdir())

    def test_an_empty_config_flag_is_exit_2_whatever_the_environment(
        self, tmp_path, monkeypatch, capsys
    ):
        # `--config ''` used to fall back to $CONLEDISCO_CONFIG and run on it.
        config = planted.generate(
            tmp_path, pairs=30, dc_count=8, thresh_count=3, min_freq=2, iterations=2
        )
        monkeypatch.setenv(CONFIG_ENV_VAR, str(config))
        for argv in (["run", "all"], ["report"]):
            capsys.readouterr()
            assert main([*argv, "--config", "", "--output", str(tmp_path / "out")]) == 2
            assert "error: --config must name a file, got ''" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_a_directory_in_the_way_of_the_manifest_stops_before_any_stage(
        self, tmp_path, capsys
    ):
        config = planted.generate(
            tmp_path, pairs=30, dc_count=8, thresh_count=3, min_freq=2, iterations=2
        )
        blocked = tmp_path / "out" / ARTIFACTS["manifest"]
        blocked.mkdir(parents=True)
        for argv in (["run", "all"], ["ingest"]):
            capsys.readouterr()
            assert main([*argv, "--config", str(config)]) == 1
            err = capsys.readouterr().err
            assert f"error: cannot write {blocked}: Is a directory" in err
            assert "Traceback" not in err
            assert list((tmp_path / "out").iterdir()) == [blocked]
            assert not list(blocked.iterdir())

    def test_corrupt_input_is_exit_1(self, tmp_path, capsys):
        config = planted.generate(
            tmp_path, pairs=30, dc_count=8, thresh_count=3, min_freq=2, iterations=2
        )
        # Truncate the target side so the line counts disagree.
        fr = tmp_path / "corpus.fr"
        lines = fr.read_text(encoding="utf-8").splitlines()
        fr.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        code = main(["ingest", "--config", str(config)])
        assert code == 1
        assert "line count mismatch" in capsys.readouterr().err
        # Every line pair empty: skip_empty leaves no pair.
        for side in ("corpus.en", "corpus.fr"):
            (tmp_path / side).write_text("\n \n\n", encoding="utf-8")
        assert main(["ingest", "--config", str(config)]) == 1
        assert "error: corpus is empty after loading" in capsys.readouterr().err

    def test_null_token_in_a_cased_corpus_is_exit_1(self, tmp_path, capsys):
        # The aligner's NULL word is named `<NULL>`, so with use_null no
        # corpus token may be spelled so; lowercasing spells it `<null>`.
        config = planted.generate(
            tmp_path, pairs=30, dc_count=8, thresh_count=3, min_freq=2, iterations=2
        )
        fr = tmp_path / "corpus.fr"
        lines = fr.read_text(encoding="utf-8").splitlines()
        lines[4] += " <NULL>"
        fr.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["run", "all", "--config", str(config)]) == 0
        with config.open("a", encoding="utf-8") as f:
            f.write("lowercase = false\n")
        capsys.readouterr()
        assert main(["run", "all", "--config", str(config)]) == 1
        assert "training pair 4 holds the token <NULL>" in capsys.readouterr().err

    def test_negative_limit_rejected(self, tmp_path, capsys):
        config = planted.generate(
            tmp_path, pairs=30, dc_count=8, thresh_count=3, min_freq=2, iterations=2
        )
        assert main(["ingest", "--config", str(config), "--limit", "-1"]) == 2
        assert "config key 'limit'" in capsys.readouterr().err
        # `--threads` is gone: argparse rejects it before any config is read.
        with pytest.raises(SystemExit) as exc:
            main(["ingest", "--config", str(config), "--threads", "0"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 0" in capsys.readouterr().err

    def test_entry_exits_with_the_code_of_main(self, tmp_path):
        # The command runs `main` with the cyclic collector off and freezes
        # what the run left before it exits; `main`, which tests and the
        # tracer call in-process, leaves the collector be.
        ghost = str(tmp_path / "ghost.cfg")
        frozen = gc.get_freeze_count()
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            try:
                assert main(["ingest", "--config", ghost]) == 2
                assert gc.isenabled() is enabled
            finally:
                gc.enable()
        assert gc.get_freeze_count() == frozen
        code = (
            "import gc, dclex.cli\n"
            "main, seen = dclex.cli.main, []\n"
            "dclex.cli.main = lambda: seen.append(gc.isenabled()) or main()\n"
            "try:\n    dclex.cli.entry()\n"
            "except SystemExit as exc:\n    print(exc.code, seen, gc.get_freeze_count() > 0)"
        )
        done = run_python("-c", code, "ingest", "--config", ghost)
        assert done.stdout == "2 [False] True\n"
        done = subprocess.run(
            [sys.executable, "-m", "dclex", "ingest", "--config", ghost],
            env=run_python_env(), capture_output=True, text=True, encoding="utf-8",
        )
        assert done.returncode == 2 and "not found" in done.stderr

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "dclex" in capsys.readouterr().out


def run_python_env(**env):
    """The environment of a fresh interpreter that imports this dclex, with
    `env` over it (None removes a variable)."""
    paths = [str(Path(dclex.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    merged = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths)), **env}
    return {key: value for key, value in merged.items() if value is not None}


def run_python(*args, **env):
    """Run a fresh interpreter with `args` (such as "-c", code, ...) in
    `run_python_env(**env)`; it must exit with 0."""
    return subprocess.run(
        [sys.executable, *args], env=run_python_env(**env),
        capture_output=True, text=True, encoding="utf-8", check=True,
    )


def test_loading_the_cli_does_not_import_numpy(tmp_path):
    # numpy costs more to import than the whole CLI; only training needs it.
    # No stage runs a worker pool, so nothing loads concurrent.futures. A
    # stage's modules load when it runs, and the rare paths' imports
    # (difflib for an unknown key, hashlib for input digests) when they run.
    # The records are NamedTuples, so dataclasses (and the inspect it
    # imports) stays unloaded; argparse loads with the parser and json with
    # a manifest.
    unloaded = [
        "numpy",
        "concurrent.futures",
        "dclex.alignment",
        "dclex.phrasetable",
        "dclex.lexicon",
        "dclex.evaluation",
        "dclex.tagging",
        "dclex.inventory",
        "difflib",
        "hashlib",
        "dataclasses",
        "inspect",
        "argparse",
        "json",
    ]
    code = (
        "import sys, dclex.cli; dclex.cli.validate_config(sys.argv[1]); "
        "print([name for name in sys.argv[2:] if name in sys.modules])"
    )
    done = run_python("-c", code, write_config(tmp_path, MINIMAL), *unloaded)
    assert done.stdout == "[]\n"


def test_main_defaults_openblas_to_one_thread(tmp_path):
    code = (
        "import os, sys, dclex.cli; dclex.cli.main(sys.argv[1:]); "
        "print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    )
    args = ("ingest", "--config", str(tmp_path / "missing.cfg"))
    assert run_python("-c", code, *args, OPENBLAS_NUM_THREADS=None).stdout == "1\n"
    assert run_python("-c", code, *args, OPENBLAS_NUM_THREADS="2").stdout == "2\n"
