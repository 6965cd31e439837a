"""Connective inventories, relation label sets, gold lexicon, relation map."""

import logging

import pytest

from dclex.corpus import FrequencyTable
from dclex.errors import PipelineError
from dclex.inventory import (
    Connective,
    GoldLexicon,
    default_gold_relations,
    default_induced_relations,
    default_relation_map,
    load_connective_inventory,
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
        assert [c.surface for c in inv] == [("même", "si"), ("pourtant",), ("d'ailleurs",)]

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

    def test_text_property_joins_surface(self):
        assert Connective(("même", "si")).text == "même si"


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
        assert gold.entries == frozenset(
            {("même si", "Concession"), ("même si", "Condition")}
        )
        assert {surface for surface, _ in gold.entries} == {"même si"}

    def test_unknown_relation_reports_line(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("si\tConcession\nsi\tNope\n", encoding="utf-8")
        with pytest.raises(PipelineError, match="line 2"):
            load_gold_lexicon(str(path), relations=("Concession",))

    def test_duplicate_rows_collapse(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("si\tConcession\nsi\tConcession\n", encoding="utf-8")
        gold = load_gold_lexicon(str(path), relations=("Concession",))
        assert len(gold.entries) == 1

    def test_restriction_keeps_at_threshold_drops_below(self):
        gold = GoldLexicon(
            frozenset({("au contraire", "Contrast"), ("même si", "Concession")})
        )
        freqs = FrequencyTable({"au contraire": 49, "même si": 50})
        kept = restrict_gold(gold, freqs, min_freq=50)
        assert kept.entries == frozenset({("même si", "Concession")})

    def test_restriction_is_monotone_subset(self):
        pairs = frozenset({(f"c{i}", "R") for i in range(10)})
        freqs = FrequencyTable({f"c{i}": i * 10 for i in range(10)})
        gold = GoldLexicon(pairs)
        prev = gold.entries
        for threshold in (0, 10, 45, 50, 200):
            kept = restrict_gold(gold, freqs, min_freq=threshold).entries
            assert kept <= prev <= gold.entries
            prev = kept

    def test_unseen_connective_counts_as_zero(self):
        gold = GoldLexicon(frozenset({("fantôme", "Contrast")}))
        kept = restrict_gold(gold, FrequencyTable({}), min_freq=1)
        assert kept.entries == frozenset()


class TestRelationMap:
    def test_projection_and_identity(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_text("Contingency.Condition\tCondition\n", encoding="utf-8")
        rel_map = load_relation_map(
            str(path),
            induced=("Contingency.Condition",),
            gold=("Condition",),
        )
        assert rel_map.project("Contingency.Condition") == "Condition"
        assert rel_map.project("Temporal.Synchrony") is None

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


class TestPackagedDefaults:
    def test_induced_inventory_shape(self):
        labels = default_induced_relations()
        assert len(labels) == 14
        assert "Comparison.Concession" in labels
        assert all(" " not in lab and "-" not in lab for lab in labels)

    def test_gold_inventory_shape(self):
        labels = default_gold_relations()
        assert len(labels) == 15
        assert "Concession" in labels and "Condition" in labels

    def test_default_map_is_consistent_with_defaults(self):
        rel_map = default_relation_map()
        induced = set(default_induced_relations())
        gold = set(default_gold_relations())
        assert rel_map.pairs  # non-empty
        for src, dst in rel_map.pairs.items():
            assert src in induced and dst in gold
        assert rel_map.project("Comparison.Concession") == "Concession"
