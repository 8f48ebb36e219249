import json

import pytest

from dialoscope.analysis import analyze_corpus
from dialoscope.corpus import load_multiwoz, load_smcalflow
from dialoscope.normalize import default_lexicon
from dialoscope.report import histogram_csv, markdown
from conftest import load_table2


@pytest.fixture
def mwz_report(mwz_path):
    return analyze_corpus(load_multiwoz(mwz_path), default_lexicon())


class TestRender:
    def test_markdown_rows(self, mwz_report):
        md = markdown(mwz_report)
        for label in ("nothing to predict", "+ δc = 0", "+ δc = 1", "δc ≥ 2",
                      "unresolved", "non-contextual",
                      "knowledge about the user", "verbatim",
                      "entity recognition", "semantic understanding",
                      "relaxed (drop/dontcare)"):
            assert label in md, label
        assert "User turns analyzed: 9" in md

    def test_two_decimal_formatting(self, mwz_report):
        md = markdown(mwz_report)
        # 3/9 nothing-to-predict
        assert "| nothing to predict | 33.33 |" in md

    def test_markdown_matches_json(self, mwz_report):
        doc = mwz_report
        for key, value in doc["conversationality"].items():
            if key in ("delta0", "delta1"):
                continue  # only cumulative rows are printed
            assert f"{value:.2f}" in markdown(doc), key

    def test_histogram_csv(self, mwz_report):
        csv = histogram_csv(mwz_report)
        lines = csv.strip().splitlines()
        assert lines[0] == "delta_c,count"
        for line in lines[1:]:
            d, c = line.split(",")
            assert int(d) >= 2 and int(c) >= 0

    def test_smcalflow_section(self, smcalflow_path):
        report = analyze_corpus(load_smcalflow(smcalflow_path))
        md = markdown(report)
        assert "| Programs | refer |" in md
        assert "| Programs | revise |" in md


class TestJsonRoundTrip:
    def test_survives_serialization(self, mwz_report):
        doc = mwz_report
        assert json.loads(json.dumps(doc)) == doc


class TestLoadReference:
    @pytest.mark.parametrize("name", ["table2_multiwoz_test",
                                      "table2_multiwoz_dev",
                                      "table2_sgd_test"])
    def test_bundled_references_parse(self, name):
        doc = load_table2(name)
        assert "conversationality" in doc
        assert "normalization" in doc

    def test_reference_values_spot_check(self):
        doc = load_table2("table2_multiwoz_test")
        assert doc["conversationality"]["nothing_to_predict"] == \
            pytest.approx(32.63)
        assert doc["conversationality"]["delta2_plus"] == pytest.approx(3.52)
        assert doc["normalization"]["verbatim"] == pytest.approx(87.30)


class TestEmptyCorpus:
    def test_no_division_by_zero(self):
        from dialoscope.corpus import Corpus, DatasetKind
        report = analyze_corpus(Corpus(DatasetKind.MULTIWOZ, "toy", ()),
                                default_lexicon())
        assert report["total_user_turns"] == 0
        assert histogram_csv(report).strip() == "delta_c,count"
