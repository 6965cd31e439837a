"""Config validation, stage orchestration, and the command-line entry point."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dclex
from dclex.cli import (
    ARTIFACTS,
    CONFIG_ENV_VAR,
    PipelineConfig,
    main,
    validate_config,
)
from dclex.errors import UsageError
from dclex.parallel import CHUNK_SIZE

import planted


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
        assert cfg.threads == 1
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
            ("threads = 0", "threads"),
            ("heuristic = magic", "heuristic"),
            ("model = model9", "model"),
            ("evidence_min_prob = 1.5", "evidence_min_prob"),
        ]:
            path = write_config(tmp_path, MINIMAL + line + "\n")
            with pytest.raises(UsageError, match=message):
                validate_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(UsageError, match="not found"):
            validate_config(str(tmp_path / "nope.cfg"))


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
            "annotations",
            "fused_src",
            "align_sym",
            "phrase_table",
            "dc_records",
            "lexicon",
            "eval_report",
            "evidence",
            "table1",
            "manifest",
        ):
            assert (out / ARTIFACTS[name]).is_file(), name

    def test_translation_tables_only_on_request(self, mini_run, tmp_path):
        root, config = mini_run
        for name in ("ttable_fwd", "ttable_bwd"):
            assert not (root / "out" / ARTIFACTS[name]).exists()
        dumping = tmp_path / "dump.cfg"
        dumping.write_text(
            config.read_text(encoding="utf-8") + "dump_ttables = true\n", encoding="utf-8"
        )
        out = tmp_path / "out"
        assert main(["run", "all", "--config", str(dumping), "--output", str(out)]) == 0
        for name in ("ttable_fwd", "ttable_bwd"):
            rows = (out / ARTIFACTS[name]).read_text(encoding="utf-8").splitlines()
            assert rows and all(len(row.split("\t")) == 3 for row in rows)
        for name in ("align_sym", "lexicon", "eval_report"):
            first = (root / "out" / ARTIFACTS[name]).read_bytes()
            assert (out / ARTIFACTS[name]).read_bytes() == first

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

    def test_align_rows_count_tokens_and_links(self, mini_run):
        root, _ = mini_run
        out = root / "out"
        manifest = json.loads((out / ARTIFACTS["manifest"]).read_text(encoding="utf-8"))
        rows = manifest["stages"]["align"]["rows"]
        src = (out / ARTIFACTS["fused_src"]).read_text(encoding="utf-8").split()
        tgt = (out / ARTIFACTS["corpus_tgt"]).read_text(encoding="utf-8").split()
        sym = (out / ARTIFACTS["align_sym"]).read_text(encoding="utf-8").split()
        assert (rows["src_tokens"], rows["tgt_tokens"]) == (len(src), len(tgt))
        assert 0 < rows["fwd_links"] <= rows["tgt_tokens"]
        assert 0 < rows["bwd_links"] <= rows["src_tokens"]
        assert rows["sym_links"] == len(sym)
        for name in ("alignments.fwd.txt", "alignments.bwd.txt"):
            assert not (out / name).exists()

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

    def test_extract_counts_only_accepted_fused_tokens(self, tmp_path):
        # "albeit" is not a source inventory form: its fused token makes no
        # phrase-table row, and the occurrence it is linked to is not aligned.
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
        table = (out / ARTIFACTS["phrase_table"]).read_text(encoding="utf-8")
        assert table == "although-Comparison.Concession ||| bien que ||| 1\n"
        records = (out / ARTIFACTS["dc_records"]).read_text(encoding="utf-8")
        assert records == "bien que\talthough\tComparison.Concession\t1\n"

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

    def test_negative_limit_rejected(self, tmp_path, capsys):
        config = planted.generate(
            tmp_path, pairs=30, dc_count=8, thresh_count=3, min_freq=2, iterations=2
        )
        for flag, value, key in (("--limit", "-1", "limit"), ("--threads", "0", "threads")):
            assert main(["ingest", "--config", str(config), flag, value]) == 2
            assert f"config key {key!r}" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "dclex" in capsys.readouterr().out


def test_loading_the_cli_does_not_import_numpy(tmp_path):
    # numpy costs more to import than the whole CLI; only training needs it.
    code = (
        "import sys, dclex.cli; dclex.cli.validate_config(sys.argv[1]); "
        "print('numpy' in sys.modules)"
    )
    paths = [str(Path(dclex.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run(
        [sys.executable, "-c", code, write_config(tmp_path, MINIMAL)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert done.stdout == "False\n"
