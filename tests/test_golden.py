"""Byte-identity of the CLI's outputs on the test fixtures: the `fixtures`
set of tests/identity.py against tests/identity_digests.json. That script
lists the calls, checks the benchmark corpus too and re-records the digests.
"""
import identity
from dialoscope import report


def moved_fixture_digests() -> list:
    recorded = {name: value for name, value in identity.recorded_digests().items()
                if name.startswith("fixtures/")}
    return identity.moved(recorded, identity.set_digests("fixtures"))


def test_outputs_match_recorded_digests():
    assert moved_fixture_digests() == []


def test_a_moved_byte_names_exactly_the_moved_digests(monkeypatch):
    histogram_csv = report.histogram_csv
    monkeypatch.setattr(report, "histogram_csv", lambda doc: "#" + histogram_csv(doc)[1:])
    csv = [name for name in identity.recorded_digests()
           if name.startswith("fixtures/out/") and name.endswith(".csv")]
    assert len(csv) == 8  # analyze at two worker counts on four datasets
    assert moved_fixture_digests() == sorted(csv)


def test_a_digest_on_one_side_only_has_moved():
    assert identity.moved({"a": 1}, {"a": 1}) == []
    assert identity.moved({"a": 1}, {"a": 2}) == ["a"]
    assert identity.moved({"a": 1}, {"a": 1, "b": None}) == ["b"]
    assert identity.moved({"a": 1, "b": None}, {"a": 1}) == ["b"]
