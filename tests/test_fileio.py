"""Strict UTF-8 text inputs, with and without a leading byte-order mark;
atomic writes."""

import os
import stat

import pytest

from dclex.cli import validate_config
from dclex.corpus import load_parallel_corpus
from dclex.errors import PipelineError
from dclex.fileio import atomic_write_text, read_text_strict
from dclex.inventory import load_connective_inventory, load_gold_lexicon

BOM = "\ufeff"


def load_inventory(tmp_path, prefix):
    path = tmp_path / "inventory.fr"
    path.write_text(prefix + "k0\nmême si\n", encoding="utf-8")
    return load_connective_inventory(str(path), "target")


def load_gold(tmp_path, prefix):
    path = tmp_path / "gold.tsv"
    path.write_text(prefix + "k0\tGOLD_A\n", encoding="utf-8")
    return load_gold_lexicon(str(path), ["GOLD_A"])


def load_corpus(tmp_path, prefix):
    src, tgt = tmp_path / "corpus.en", tmp_path / "corpus.fr"
    src.write_text(prefix + "Even though late\n", encoding="utf-8")
    tgt.write_text(prefix + "Même si tard\n", encoding="utf-8")
    return load_parallel_corpus(str(src), str(tgt))


def load_config(tmp_path, prefix):
    path = tmp_path / "run.cfg"
    path.write_text(
        prefix + "src_corpus = a\ntgt_corpus = b\nsrc_inventory = c\ntgt_inventory = d\n",
        encoding="utf-8",
    )
    return validate_config(str(path))


@pytest.mark.parametrize("load", [load_inventory, load_gold, load_corpus, load_config])
def test_byte_order_mark_is_not_part_of_the_first_token(tmp_path, load):
    plain = load(tmp_path, "")
    assert load(tmp_path, BOM) == plain


@pytest.mark.parametrize("prefix", ["", BOM])
def test_bad_byte_names_its_line(tmp_path, prefix):
    path = tmp_path / "inventory.fr"
    path.write_bytes(prefix.encode("utf-8") + b"k0\n\xff\n")
    with pytest.raises(PipelineError, match="invalid UTF-8 at line 2"):
        read_text_strict(path)


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_written_file_mode_follows_the_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        atomic_write_text(tmp_path / "out" / "lexicon.tsv", "k0\n")
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "out" / "lexicon.tsv").stat().st_mode) == mode
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["lexicon.tsv"]
