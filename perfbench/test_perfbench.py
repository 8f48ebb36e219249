"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""
import json
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import gen
import job
import speed
import srcpath
import tracing
from dialoscope import cli, corpus, evaluate, normalize
from dialoscope.analysis import apply_overrides

HERE = Path(__file__).resolve().parent


def _files(root: Path):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    gen.generate(root, seed=11, sizes=gen.TINY)
    return root, json.loads((root / "truth.json").read_text("utf-8"))


def test_generator_is_deterministic_and_seeded(tmp_path, tiny):
    root, _ = tiny
    again = gen.generate(tmp_path / "again", seed=11, sizes=gen.TINY)
    other = gen.generate(tmp_path / "other", seed=12, sizes=gen.TINY)
    assert _files(again) == _files(root)
    for name in ("mwz/data.json", "sgd/test/dialogues_001.json", "preds/sgd.jsonl",
                 "smcalflow/valid.dataflow_dialogues.jsonl", "truth.json"):
        assert (other / name).read_bytes() != (root / name).read_bytes()


def test_loaders_accept_generated_files(tiny):
    root, truth = tiny
    mwz = corpus.load_multiwoz(root / "mwz", "test")
    sgd = corpus.load_sgd(root / "sgd", "test")
    smc = corpus.load_smcalflow(root / "smcalflow" / "valid.dataflow_dialogues.jsonl")
    assert mwz.user_turn_count() == len(truth["mwz"])
    assert sgd.user_turn_count() == len(truth["sgd"])
    assert smc.user_turn_count() == len(truth["smcalflow"])
    assert len(corpus.load_multiwoz(root / "mwz", "all").dialogs) > len(mwz.dialogs)
    for corp in (mwz, sgd, smc):
        assert corpus.validate_corpus(corp) == []
    assert apply_overrides(root / "mwz" / "overrides.tsv")
    assert evaluate.load_predictions(root / "preds" / "sgd.jsonl")
    assert evaluate.load_predictions(root / "preds" / "smcalflow.jsonl")


def test_generated_sgd_keeps_comma_addresses(tiny):
    _, truth = tiny
    assert any("," in v for t in truth["sgd"] for _, _, v in t["update"]["set"])


def _run_cli(argv):
    assert cli.main([str(a) for a in argv]) == 0


def test_planted_checks_pass_on_tiny_corpus(tmp_path, tiny, capsys):
    root, truth = tiny
    sgd = ["--dataset", "sgd", "--path", root / "sgd", "--split", "test"]
    smc = ["--dataset", "smcalflow", "--path",
           root / "smcalflow" / "valid.dataflow_dialogues.jsonl"]
    _run_cli(["analyze", "--dataset", "multiwoz", "--path", root / "mwz", "--split", "test",
              "--overrides", root / "mwz" / "overrides.tsv", "--out", tmp_path / "mwz.json"])
    _run_cli(["analyze", *sgd, "--out", tmp_path / "sgd.json"])
    _run_cli(["linearize", *sgd, "--repr", "prev-state", "--previous-state", "predicted",
              "--preds", root / "preds" / "sgd.jsonl", "--out", tmp_path / "rec.jsonl"])
    _run_cli(["eval", *sgd, "--preds", root / "preds" / "sgd.jsonl", "--mode", "jga",
              "--out", tmp_path / "jga.json"])
    _run_cli(["linearize", *smc, "--repr", "user", "--out", tmp_path / "smc.jsonl"])
    _run_cli(["analyze", *smc, "--out", tmp_path / "smc.json"])
    _run_cli(["eval", *smc, "--preds", root / "preds" / "smcalflow.jsonl",
              "--mode", "exact-match", "--out", tmp_path / "em.json"])
    capsys.readouterr()
    outcomes = [
        checks.check_analysis("mwz", tmp_path / "mwz.json", truth["mwz"]),
        checks.check_analysis("sgd", tmp_path / "sgd.json", truth["sgd"]),
        checks.check_frame_records("rec", tmp_path / "rec.jsonl", truth["sgd"]),
        checks.check_jga("jga", tmp_path / "jga.json", truth["sgd"], "jga"),
        checks.check_program_records("smc", tmp_path / "smc.jsonl", truth["smcalflow"]),
        checks.check_smcalflow_analysis("smc", tmp_path / "smc.json", truth["smcalflow"]),
        checks.check_exact_match("em", tmp_path / "em.json", truth["smcalflow"]),
    ]
    for out in outcomes:
        assert not out.unexplained, out.describe()
    assert outcomes[0].failed == outcomes[1].failed == 0
    assert outcomes[2].failed == outcomes[2].known > 0  # the comma defect shows


def test_planted_check_catches_a_wrong_report(tmp_path, tiny):
    root, truth = tiny
    _run_cli(["analyze", "--dataset", "multiwoz", "--path", root / "mwz", "--split", "test",
              "--out", tmp_path / "mwz.json"])  # overrides left out
    out = checks.check_analysis("mwz", tmp_path / "mwz.json", truth["mwz"])
    assert out.failed > 0 and out.unexplained


# slots the fixed values are planted in (kind -> canonical slot)
_SLOTS = {"number": ("hotel", "people"), "time": ("train", "leaveat"),
          "day": ("train", "day"), "area": ("hotel", "area"),
          "city": ("Restaurants_1", "city"), "pricerange": ("restaurant", "pricerange"),
          "parking": ("hotel", "parking"), "internet": ("hotel", "internet"),
          "hoteltype": ("hotel", "type"), "food": ("restaurant", "food"),
          "stay": ("hotel", "stay"), "outdoor": ("Restaurants_1", "hasseatingoutdoors"),
          "smoking": ("Hotels_2", "smokingallowed")}
_ONCE_PER_DIALOG = {"time", "day", "pricerange"}


def _fixed_values():
    out = [("number", str(n), [str(n), w]) for n, w in gen.NUMBER_WORDS.items()]
    out += [("time", v, [v] + [s for vv, s in gen.TIMES if vv == v])
            for v in sorted({v for v, _ in gen.TIMES})]
    out += [("day", d, [d, a]) for d, a in gen.WEEKDAYS.items()]
    out += [("area", a, [a] + (["center"] if a == "centre" else [])) for a in gen.AREAS]
    out += [("city", c, [c] + [s for cc, s in gen.CITIES if cc == c])
            for c in sorted({c for c, _ in gen.CITIES})]
    out += [("pricerange", v, [v]) for v in ("cheap", "expensive", "moderate")]
    out += [(kind, v, [s]) for kind, pairs in gen.SEMANTIC.items() for v, s in pairs]
    return out


def test_no_planted_text_matches_another_value():
    """Fillers and the surfaces of other values never match a value, typo
    pass included, except digits, which the generator keeps apart."""
    lexicon = normalize.default_lexicon()
    values = _fixed_values()
    texts = [(None, None, f) for f in gen.USER_FILLERS + gen.AGENT_FILLERS]
    texts += [(k, v, s) for k, v, surfaces in values for s in surfaces]
    texts += [(None, None, w) for w in gen.STREET_SUFFIXES + ["theatre", "theater"]]
    for kind, value, _ in values:
        for text_kind, text_value, text in texts:
            if text_value == value or (text_kind == kind and kind in _ONCE_PER_DIALOG):
                continue
            r = normalize.match_in_text(value, _SLOTS[kind], f"zz , {text} .", lexicon)
            if r.resolved and r.matched_surface in re.findall(r"\d+", text):
                continue
            assert not r.resolved, (value, text, r)


def test_fixed_surfaces_have_their_category():
    lexicon = normalize.default_lexicon()
    planted = [("time", v, s, "entity_recognition") for v, s in gen.TIMES]
    planted += [("day", d, a, "entity_recognition") for d, a in gen.WEEKDAYS.items()]
    planted += [("city", c, s, "entity_recognition") for c, s in gen.CITIES]
    planted += [("number", str(n), w, "entity_recognition")
                for n, w in gen.NUMBER_WORDS.items()]
    planted += [("area", "centre", "center", "entity_recognition")]
    planted += [(kind, v, s, "semantic_understanding")
                for kind, pairs in gen.SEMANTIC.items() for v, s in pairs]
    for kind, value, surface, category in planted:
        r = normalize.match_in_text(value, _SLOTS[kind], f"zz , {surface} .", lexicon)
        assert r.category.value == category, (value, surface, r)


def _snapshot():
    seen = {}
    for module in tracing._package_modules():
        for key, value in vars(module).items():
            seen[(module.__name__, key)] = value
            if isinstance(value, dict):
                for k, v in value.items():
                    seen[(module.__name__, key, k)] = v
            elif isinstance(value, type):
                for k, v in vars(value).items():
                    seen[(module.__name__, key, "attr", k)] = v
    return seen


def test_wrappers_leave_the_package_unpatched():
    before = _snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _snapshot()
        changed = [k for k in before if during[k] is not before[k]]
        assert ("dialoscope.analysis", "match_in_text") in changed
        assert ("dialoscope.normalize", "damerau_levenshtein") in changed
        assert ("dialoscope.corpus", "Dialog", "attr", "previous_user_state") in changed
        assert any(k[:2] == ("dialoscope.cli", "_LOADERS") for k in changed
                   if len(k) == 3)
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert all(after[k] is before[k] for k in before)


def _traced_job(root: Path, out: Path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for job, argv in enumerate([
                ["analyze", "--dataset", "multiwoz", "--path", root / "mwz", "--split", "test",
                 "--overrides", root / "mwz" / "overrides.tsv", "--out", out / "mwz.json"],
                ["linearize", "--dataset", "sgd", "--path", root / "sgd", "--split", "test",
                 "--repr", "full", "--out", out / "rec.jsonl"],
                ["eval", "--dataset", "smcalflow", "--path",
                 root / "smcalflow" / "valid.dataflow_dialogues.jsonl",
                 "--preds", root / "preds" / "smcalflow.jsonl", "--mode", "exact-match"]]):
            tracer.job = job
            _run_cli(argv)
    finally:
        tracer.uninstall()
    tracer.dump(out / "spans.tsv")
    return tracing.summarize(tracing.load_spans(out / "spans.tsv"))


def test_traced_counts_repeat_exactly(tmp_path, tiny, capsys):
    root, truth = tiny
    first = _traced_job(root, tmp_path)
    second = _traced_job(root, tmp_path)
    capsys.readouterr()
    assert tracing.count_drift([first, second]) == []
    assert first["analysis.trace_turn_calls"] == len(truth["mwz"])
    assert first["linearize.records"] == len(truth["sgd"])
    assert first["normalize.edit_distance_calls"] > 0
    assert 0 < first["normalize.match_resolved_ratio"] <= 1
    assert first["cli.main_s"] >= first["cli.self_s"] > 0
    assert set(first) | tracing.UNTRACED == set(tracing.LAYER_METRICS)


def test_untraced_job_probes_the_host_speed(tmp_path, tiny, capsys):
    root, _ = tiny
    argv = ["analyze", "--dataset", "multiwoz", "--path", str(root / "mwz"),
            "--split", "test", "--out", str(tmp_path / "mwz.json")]
    result = job.run_calls([argv] * 10)
    capsys.readouterr()
    assert result["codes"] == [0] * 10
    assert result["probes_s"] and sum(result["probes_s"]) < result["wall_s"]
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # a host twice as slow doubles the measured time and the probe alike
    assert speed.scale(2.0, [0.002] * 10) == pytest.approx(speed.scale(1.0, [0.001] * 10))
    assert speed.scale(1.0, [speed.REFERENCE_S] * 10) == pytest.approx(0.99)


def test_run_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(srcpath.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "emit-score", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_lists_what_the_run_reports():
    import run
    bench = json.loads((srcpath.ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert {w["name"]: w["why"] for w in bench["workloads"]} == run.WORKLOADS
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.LAYER_METRICS
