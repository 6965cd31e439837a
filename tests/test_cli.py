"""Config validation, stage orchestration, and the command-line entry point."""

import dataclasses
import gc
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import dclex
from dclex import cli
from dclex.cli import (
    ARTIFACTS,
    CONFIG_ENV_VAR,
    STAGES,
    PipelineConfig,
    main,
    validate_config,
)
from dclex.alignment import HEURISTICS, NULL_TOKEN, train_model1
from dclex.corpus import CHUNK_SIZE, load_token_corpus
from dclex.errors import UsageError
from dclex.fileio import iter_data_lines
from dclex.tagging import split_fused_token

import planted

README = Path(__file__).resolve().parent.parent / "README.md"


def write_config(tmp_path, body):
    path = tmp_path / "pipeline.cfg"
    path.write_text(body, encoding="utf-8")
    return str(path)


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

    def test_range_checks(self, tmp_path):
        for line, message in [
            ("iterations = 0", "iterations"),
            ("min_freq = -1", "min_freq"),
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
        fields = dataclasses.fields(PipelineConfig)
        assert named == {f.name for f in fields}
        knobs = [f for f in fields if f.default not in (None, dataclasses.MISSING)]
        assert {f.name: getattr(cfg, f.name) for f in knobs} == {f.name: f.default for f in knobs}


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
        sym = (out / ARTIFACTS["align_sym"]).read_text(encoding="utf-8").split()
        assert (rows["src_tokens"], rows["tgt_tokens"]) == (sum(map(len, src)), sum(map(len, tgt)))
        assert 0 < rows["fwd_links"] <= rows["tgt_tokens"]
        assert 0 < rows["bwd_links"] <= rows["src_tokens"]
        assert rows["sym_links"] == len(sym)
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
    # unchanged since links were still Python sets from Viterbi to extract.
    PINNED = {
        "align_sym": "b016c91c037e7524f3a3dba0804e4a6b6ab0acf16e6a954f1a96d5a569ab8bb4",
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

    @pytest.mark.parametrize("variant", ["cased", "annotated"])
    def test_run_all_equals_each_stage_run_alone(self, tmp_path, variant):
        # `run all` hands the corpus, the links and the sites from stage to
        # stage in memory; each stage alone reads them from the output
        # directory. An empty line pair leaves a gap in the input line
        # numbers, which the token files and the annotations do not have.
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

    def test_table1_distribution(self, mini_run, capsys):
        root, config = mini_run
        code = main(["report", "--config", str(config)])
        assert code == 0
        out = capsys.readouterr().out
        # Both target connectives clear the min_freq=5 bar in this corpus.
        assert "=0\t<5\t>=5\ttotal" in out
        assert "0\t0\t2\t2" in out

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
        # the modules that tag, make or score the lexicon.
        config = planted.generate(
            tmp_path, pairs=80, dc_count=20, thresh_count=6, min_freq=5, iterations=3
        )
        assert main(["run", "all", "--config", str(config)]) == 0
        code = (
            "import sys, dclex.cli; print(dclex.cli.main(sys.argv[1:]), "
            "sorted({'numpy', 'dclex.alignment', 'dclex.phrasetable', 'dclex.lexicon', "
            "'dclex.evaluation', 'dclex.tagging'} & set(sys.modules)))"
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

    def test_run_all_without_gold_lexicon_skips_eval(self, tmp_path):
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
        no_senses = "".join(
            line for line in text.splitlines(True) if not line.startswith("default_senses")
        )
        for edited, message in (
            (no_senses, "the tag stage needs either 'annotations' or 'default_senses' configured"),
            (text.replace("senses.tsv", ghost.name), "config key 'default_senses': file not found"),
            (no_senses + f"annotations = {ghost}\n", "config key 'annotations': file not found"),
            (text.replace("inventory.en", ghost.name), "config key 'src_inventory': file not found"),
            (text.replace("inventory.fr", ghost.name), "config key 'tgt_inventory': file not found"),
            (text.replace("gold.tsv", ghost.name), "config key 'gold_lexicon': file not found"),
            (text.replace("map.tsv", ghost.name), "config key 'relation_map': file not found"),
        ):
            config.write_text(edited, encoding="utf-8")
            capsys.readouterr()
            assert main(["run", "all", "--config", str(config)]) == 2
            assert message in capsys.readouterr().err
            # The earlier run's files are left as they were, and nothing is added.
            assert earlier == {
                path.name: (path.read_bytes(), path.stat().st_mtime_ns) for path in out.iterdir()
            }
            fresh = tmp_path / "fresh"
            assert main(["run", "all", "--config", str(config), "--output", str(fresh)]) == 2
            assert not fresh.exists()
        # Tag run alone keeps its own check.
        config.write_text(no_senses, encoding="utf-8")
        capsys.readouterr()
        assert main(["tag", "--config", str(config)]) == 2
        assert "needs either 'annotations' or 'default_senses'" in capsys.readouterr().err

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
        # The command freezes what the run left before it exits; `main`,
        # which tests and the tracer call in-process, leaves the collector be.
        ghost = str(tmp_path / "ghost.cfg")
        frozen = gc.get_freeze_count()
        assert main(["ingest", "--config", ghost]) == 2
        assert gc.get_freeze_count() == frozen
        code = (
            "import gc, dclex.cli\n"
            "try:\n    dclex.cli.entry()\n"
            "except SystemExit as exc:\n    print(exc.code, gc.get_freeze_count() > 0)"
        )
        assert run_python("-c", code, "ingest", "--config", ghost).stdout == "2 True\n"
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
