"""Connective inventories, relation label sets, gold lexicon, relation map."""

import logging
import re
from pathlib import Path

import pytest

import dclex
from dclex.corpus import FrequencyTable
from dclex.errors import PipelineError
from dclex.inventory import (
    load_connective_inventory,
    load_default_senses,
    load_gold_lexicon,
    load_relation_inventory,
    load_relation_map,
    restrict_gold,
)


class TestConnectiveInventory:
    def test_loads_tokenized_lowercased_surfaces(self, tmp_path):
        path = tmp_path / "inv.txt"
        path.write_text("Même si\npourtant\n# comment\n\nd'ailleurs\n", encoding="utf-8")
        inv = load_connective_inventory(str(path))
        assert inv == [("même", "si"), ("pourtant",), ("d'ailleurs",)]

    def test_duplicates_collapse_with_warning(self, tmp_path, caplog):
        path = tmp_path / "inv.txt"
        path.write_text("si\nSi\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            inv = load_connective_inventory(str(path))
        assert len(inv) == 1
        assert any("duplicate" in rec.message for rec in caplog.records)

    def test_large_synthetic_inventory_size(self, tmp_path):
        path = tmp_path / "inv.txt"
        path.write_text("\n".join(f"conn{i}" for i in range(371)) + "\n", encoding="utf-8")
        assert len(load_connective_inventory(str(path))) == 371

    def test_empty_inventory_is_fatal(self, tmp_path):
        path = tmp_path / "inv.txt"
        path.write_text("# only a comment\n", encoding="utf-8")
        with pytest.raises(PipelineError, match="empty connective"):
            load_connective_inventory(str(path))


class TestRelationInventory:
    def test_loads_labels(self, tmp_path):
        path = tmp_path / "rel.txt"
        path.write_text("Comparison.Concession\nTemporal.Synchrony\n", encoding="utf-8")
        assert load_relation_inventory(str(path)) == [
            "Comparison.Concession",
            "Temporal.Synchrony",
        ]

    def test_rejects_whitespace_in_label(self, tmp_path):
        path = tmp_path / "rel.txt"
        path.write_text("Expansion.Alternative.Chosen alternative\n", encoding="utf-8")
        with pytest.raises(PipelineError, match="line 1"):
            load_relation_inventory(str(path))

    def test_rejects_hyphen_in_label(self, tmp_path):
        path = tmp_path / "rel.txt"
        path.write_text("Bad-Label\n", encoding="utf-8")
        with pytest.raises(PipelineError):
            load_relation_inventory(str(path))

    def test_duplicate_label_collapses_with_warning(self, tmp_path, caplog):
        path = tmp_path / "rel.txt"
        path.write_text("A\nA\nB\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            labels = load_relation_inventory(str(path))
        assert labels == ["A", "B"]
        assert any("duplicate" in rec.message for rec in caplog.records)


class TestGoldLexicon:
    def test_loads_pairs_with_normalized_surface(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("Même si\tConcession\nmême si\tCondition\n", encoding="utf-8")
        gold = load_gold_lexicon(str(path), relations=("Concession", "Condition"))
        assert gold == frozenset({("même si", "Concession"), ("même si", "Condition")})

    def test_unknown_relation_reports_line(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("si\tConcession\nsi\tNope\n", encoding="utf-8")
        with pytest.raises(PipelineError, match="line 2"):
            load_gold_lexicon(str(path), relations=("Concession",))

    def test_duplicate_rows_collapse(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("si\tConcession\nsi\tConcession\n", encoding="utf-8")
        gold = load_gold_lexicon(str(path), relations=("Concession",))
        assert len(gold) == 1

    def test_restriction_keeps_at_threshold_drops_below(self):
        gold = frozenset({("au contraire", "Contrast"), ("même si", "Concession")})
        freqs = FrequencyTable({"au contraire": 49, "même si": 50})
        kept = restrict_gold(gold, freqs, min_freq=50)
        assert kept == frozenset({("même si", "Concession")})

    def test_restriction_is_monotone_subset(self):
        gold = frozenset({(f"c{i}", "R") for i in range(10)})
        freqs = FrequencyTable({f"c{i}": i * 10 for i in range(10)})
        prev = gold
        for threshold in (0, 10, 45, 50, 200):
            kept = restrict_gold(gold, freqs, min_freq=threshold)
            assert kept <= prev <= gold
            prev = kept

    def test_unseen_connective_counts_as_zero(self):
        gold = frozenset({("fantôme", "Contrast")})
        assert restrict_gold(gold, FrequencyTable({}), min_freq=1) == frozenset()


class TestRelationMap:
    def test_projection_and_identity(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_text("Contingency.Condition\tCondition\n", encoding="utf-8")
        rel_map = load_relation_map(
            str(path),
            induced=("Contingency.Condition",),
            gold=("Condition",),
        )
        assert rel_map == {"Contingency.Condition": "Condition"}

    def test_conflicting_rows_are_fatal(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_text("A.B\tX\nA.B\tY\n", encoding="utf-8")
        with pytest.raises(PipelineError, match="mapped twice"):
            load_relation_map(str(path), induced=("A.B",), gold=("X", "Y"))

    def test_unknown_side_labels_are_fatal(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_text("A.B\tX\n", encoding="utf-8")
        with pytest.raises(PipelineError):
            load_relation_map(str(path), induced=(), gold=("X",))
        with pytest.raises(PipelineError):
            load_relation_map(str(path), induced=("A.B",), gold=())


class TestTableErrors:
    """The errors each loader names its file and line in. The gold lexicon,
    the default senses and the relation map read their rows alike."""

    @pytest.mark.parametrize(
        "load, what",
        [
            (load_relation_inventory, "relation inventory"),
            (load_gold_lexicon, "gold lexicon"),
            (load_default_senses, "default-sense table"),
            (load_relation_map, "relation map"),
        ],
    )
    def test_a_table_without_rows_is_empty(self, tmp_path, load, what):
        path = tmp_path / "table"
        path.write_text("# a comment\n\n  \n", encoding="utf-8")
        with pytest.raises(PipelineError, match=f"^{re.escape(str(path))}: empty {what}$"):
            load(str(path))

    @pytest.mark.parametrize(
        "load, columns",
        [
            (load_gold_lexicon, "surface<TAB>relation"),
            (load_default_senses, "surface<TAB>relation"),
            (load_relation_map, "induced<TAB>gold"),
        ],
    )
    def test_a_row_of_other_than_two_fields_is_named(self, tmp_path, load, columns):
        # Each line is stripped before it is split, so a blank field at
        # either end leaves a row of one field.
        path = tmp_path / "table"
        for row in ("A", "A\tB\tC", "\tB", "A\t ", "A\t\tB"):
            path.write_text(f"A \t B\n{row}\n", encoding="utf-8")
            want = f"{path}: expected `{columns}` at line 2"
            with pytest.raises(PipelineError, match=f"^{re.escape(want)}$"):
                load(str(path))

    def test_fields_are_stripped(self, tmp_path):
        path = tmp_path / "table"
        path.write_text("Même  si \t A \n", encoding="utf-8")
        assert load_gold_lexicon(str(path)) == frozenset({("même si", "A")})
        assert load_default_senses(str(path)) == {"même si": "A"}
        assert load_relation_map(str(path)) == {"Même  si": "A"}


# The packaged tables, which the CLI reads when their config keys are unset.
DATA = Path(dclex.__file__).with_name("data")
INDUCED = str(DATA / "induced_relations.txt")
GOLD = str(DATA / "gold_relations.txt")
MAP = str(DATA / "relation_map.tsv")


class TestPackagedDefaults:
    def test_induced_inventory_shape(self):
        labels = load_relation_inventory(INDUCED)
        assert len(labels) == 14
        assert "Comparison.Concession" in labels
        assert all(" " not in lab and "-" not in lab for lab in labels)

    def test_gold_inventory_shape(self):
        labels = load_relation_inventory(GOLD)
        assert len(labels) == 15
        assert "Concession" in labels and "Condition" in labels

    def test_default_map_is_consistent_with_defaults(self):
        rel_map = load_relation_map(MAP)
        induced = set(load_relation_inventory(INDUCED))
        gold = set(load_relation_inventory(GOLD))
        assert rel_map  # non-empty
        for src, dst in rel_map.items():
            assert src in induced and dst in gold
        assert rel_map["Comparison.Concession"] == "Concession"
