"""The dialoscope benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the seeded inputs (gen.py) in a scratch directory of the
checkout, then runs the workload's job over and over for S seconds. A
job is a fixed sequence of `dialoscope analyze|linearize|eval` calls,
run in one fresh interpreter (closed loop, one client); jobs run one
after another. Every job's outputs are checked against the planted truth
(checks.py).

--trace 0 reports the end-to-end metrics, medians over the jobs, with
the three times scaled to a reference host speed (speed.py):

    turns_per_s      per-turn operations completed per wall second, from
                     loading through writing outputs
    cpu_ms_per_turn  CPU ms per operation, process plus pool workers
    peak_rss_mb      peak resident memory: job process plus each pool worker
    setup_s          interpreter start, package import, lexicon and
                     overrides parse, lazy tables (median of fresh starts
                     taken between the jobs, at least 10)
    ok_ops_ratio     operations that did not fail, over those attempted

--trace 1 alternates untraced and traced jobs (tracing.py) and reports
the per-layer metrics.

The last line of standard output is one JSON object: correct, attempted,
failed, metrics. `attempted` is the job's per-turn operations, each
counted once; `failed` those that failed in any job of the run. A run is
correct when every failed operation is due to the known comma defect;
all failures, that one included, count in `failed`.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

import srcpath
import checks
import gen
import speed
import tracing

HERE = Path(__file__).resolve().parent
JOB_TIMEOUT_S = 60  # a job takes seconds; a run must end within 180 s
# set-up is sampled between jobs, so its median spans the run's contention
SETUP_PER_JOB = 1
SETUP_MIN = 10

# what a user pays before the first corpus byte is read, between host
# speed probes taken just after the interpreter starts and at the end
SETUP_SNIPPET = """\
import sys
sys.path.insert(0, sys.argv[2])
import speed
probes = [speed.probe() for _ in range(3)]
import dialoscope.cli
from dialoscope import analysis, corpus, normalize
normalize.default_lexicon()
analysis.apply_overrides(sys.argv[1])
normalize.variants("twelve")
corpus.canonical_slot("price range")
probes += [speed.probe() for _ in range(3)]
print(*probes)
"""

END_TO_END = {"turns_per_s": "1/s", "cpu_ms_per_turn": "ms", "peak_rss_mb": "MB",
              "setup_s": "s", "ok_ops_ratio": "ratio"}

# why each workload is in the benchmark (BENCHMARK.json repeats these)
WORKLOADS = {
    "mwz-analyze": "MultiWOZ-shaped test split (1000 dialogs, ~7.5k turns), serial "
                   "analyze with overrides: the headline job; matching, typo pass "
                   "first, takes most of its time",
    "sgd-analyze-long": "long SGD-shaped dialogs (modal delta_c 3, tail past 24), analyze "
                        "with 2 workers: deep backward search, repeated misses, the pool",
    "emit-score": "linearize x4 and JGA x2 on SGD, linearize/analyze/exact-match on "
                  "SMCalFlow: state folding, output writing, lispress; never the matcher",
}


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

@dataclass
class Step:
    """One CLI call of a job, the file it writes and how to check it."""
    label: str
    argv: List[str]
    out: Path
    ops: int
    check: Callable[[Path], checks.Outcome]


class Paths:
    def __init__(self, work: Path):
        src = work / "in"
        self.src = src
        self.mwz = src / "mwz"
        self.overrides = src / "mwz" / "overrides.tsv"
        self.sgd = src / "sgd"
        self.smc = src / "smcalflow" / "valid.dataflow_dialogues.jsonl"
        self.sgd_preds = src / "preds" / "sgd.jsonl"
        self.smc_preds = src / "preds" / "smcalflow.jsonl"
        self.out = work / "out"
        self.spans = work / "spans.tsv"


def _argv(*parts) -> List[str]:
    return [str(p) for p in parts]


def _identical_to(reference: Path, check):
    """Wrap a report check with byte-identity against a reference report."""
    def run(path: Path) -> checks.Outcome:
        out = check(path)
        if not reference.exists() or reference.read_bytes() != path.read_bytes():
            out.failed = out.attempted
            out.problem(f"{path.name} differs between --workers 1 and --workers 2")
        return out
    return run


def steps_for(workload: str, p: Paths, truth: dict, workers: int) -> List[Step]:
    o = p.out
    if workload == "mwz-analyze":
        turns = truth["mwz"]
        return [Step("mwz analyze", _argv(
            "analyze", "--dataset", "multiwoz", "--path", p.mwz, "--split", "test",
            "--overrides", p.overrides, "--workers", 1, "--out", o / "mwz_report.json",
            "--markdown", o / "mwz_report.md", "--histogram", o / "mwz_hist.csv"),
            o / "mwz_report.json", len(turns),
            lambda path: checks.check_analysis("mwz analyze", path, turns))]
    sgd = truth["sgd"]
    common = ["--dataset", "sgd", "--path", p.sgd, "--split", "test"]
    if workload == "sgd-analyze-long":
        report = o / f"sgd_report_w{workers}.json"

        def check(path):
            return checks.check_analysis(f"sgd analyze w{workers}", path, sgd)
        if workers != 1:
            check = _identical_to(o / "sgd_report_w1.json", check)
        return [Step(f"sgd analyze w{workers}", _argv(
            "analyze", *common, "--workers", workers, "--out", report,
            "--markdown", o / "sgd_report.md", "--histogram", o / "sgd_hist.csv"),
            report, len(sgd), check)]
    if workload != "emit-score":
        raise ValueError(workload)
    smc = truth["smcalflow"]
    smc_common = ["--dataset", "smcalflow", "--path", p.smc, "--split", "valid"]
    steps = []
    for repr_ in ("user", "exchange", "prev-state", "full"):
        extra = (["--previous-state", "predicted", "--preds", p.sgd_preds]
                 if repr_ == "prev-state" else [])
        out = o / f"sgd_{repr_}.jsonl"
        steps.append(Step(f"sgd linearize {repr_}", _argv(
            "linearize", *common, "--repr", repr_, *extra, "--out", out), out, len(sgd),
            lambda path, r=repr_: checks.check_frame_records(f"sgd linearize {r}", path, sgd)))
    for mode in ("jga-oracle", "jga"):
        out = o / f"sgd_{mode}.json"
        steps.append(Step(f"sgd eval {mode}", _argv(
            "eval", *common, "--preds", p.sgd_preds, "--mode", mode, "--out", out),
            out, len(sgd),
            lambda path, m=mode: checks.check_jga(f"sgd eval {m}", path, sgd, m)))
    steps.append(Step("smcalflow linearize", _argv(
        "linearize", *smc_common, "--repr", "exchange", "--out", o / "smc.jsonl"),
        o / "smc.jsonl", len(smc),
        lambda path: checks.check_program_records("smcalflow linearize", path, smc)))
    steps.append(Step("smcalflow analyze", _argv(
        "analyze", *smc_common, "--out", o / "smc_report.json"),
        o / "smc_report.json", len(smc),
        lambda path: checks.check_smcalflow_analysis("smcalflow analyze", path, smc)))
    steps.append(Step("smcalflow eval exact-match", _argv(
        "eval", *smc_common, "--preds", p.smc_preds, "--mode", "exact-match",
        "--out", o / "smc_exact.json"), o / "smc_exact.json", len(smc),
        lambda path: checks.check_exact_match("smcalflow eval exact-match", path, smc)))
    return steps


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def _run_child(argv: List[str], timeout: float):
    """Run argv in its own process group; kill the group on timeout.
    Returns (exit code, stdout) after every process of the group has ended."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        x for x in (str(srcpath.SRC), env.get("PYTHONPATH")) if x)
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, start_new_session=True,
                            cwd=srcpath.ROOT, env=env)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        return None, out.decode("utf-8", "replace")
    finally:
        try:  # pool workers left behind by a crash
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out.decode("utf-8", "replace")


def run_job(p: Paths, spec: dict) -> Optional[dict]:
    spec_path = p.out.parent / "spec.json"
    spec_path.write_text(json.dumps(spec), "utf-8")
    code, out = _run_child([sys.executable, str(HERE / "job.py"), str(spec_path)],
                           JOB_TIMEOUT_S)
    if code != 0 or not out.strip():
        print(f"perfbench: job process failed (exit {code})", file=sys.stderr)
        return None
    return json.loads(out.strip().splitlines()[-1])


def measure_setup(p: Paths) -> float:
    """Set-up seconds at the reference host speed (speed.py)."""
    t0 = time.perf_counter()
    code, out = _run_child(
        [sys.executable, "-c", SETUP_SNIPPET, str(p.overrides), str(HERE)], JOB_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError("set-up snippet failed")
    return speed.scale(wall, [float(x) for x in out.split()])


# ---------------------------------------------------------------------------
# checking a job's outputs
# ---------------------------------------------------------------------------

def _digest(path: Path) -> Optional[str]:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


class Ledger:
    """The per-turn operations of the run's job, and those that failed.

    Each operation counts once however many jobs ran it, and counts as
    failed if it failed in any of them, so the counts depend on the seed
    and not on how many jobs fit in the run."""

    def __init__(self):
        self.messages: List[str] = []
        self.correct = True
        self._seen: Dict[str, tuple] = {}  # step label -> (digest, outcome)
        self._worst: Dict[str, checks.Outcome] = {}  # step label -> most failed

    @property
    def attempted(self) -> int:
        return sum(o.attempted for o in self._worst.values())

    @property
    def failed(self) -> int:
        return sum(o.failed for o in self._worst.values())

    @property
    def known(self) -> int:
        return sum(o.known for o in self._worst.values())

    def note(self, message: str):
        if message not in self.messages:
            self.messages.append(message)

    def record(self, steps: List[Step], result: Optional[dict]):
        for n, step in enumerate(steps):
            code = result["codes"][n] if result else None
            digest = _digest(step.out)
            if code != 0 or digest is None:
                why = (result["errors"] if result and result["errors"]
                       else [f"exit {code}, output {step.out.name} missing"
                             if digest is None else f"exit {code}"])
                outcome = checks.failed_call(step.label, step.ops, "; ".join(why)[:500])
            else:
                seen = self._seen.get(step.label)
                if seen is not None and seen[0] == digest:
                    outcome = seen[1]
                else:
                    outcome = step.check(step.out)
                    if seen is not None:
                        outcome.problem(f"{step.out.name} changed between jobs")
                    self._seen[step.label] = (digest, outcome)
            worst = self._worst.get(step.label)
            if worst is None or outcome.failed > worst.failed:
                self._worst[step.label] = outcome
            for line in outcome.describe():
                self.note(line)
            if outcome.unexplained:
                self.correct = False
            if digest is not None:
                step.out.unlink()


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def _spread(values: List[float]) -> str:
    if len(values) < 3:
        return f"median of {len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median of {len(values)}, quartiles {q1:.6g} .. {q3:.6g}"


def _another_job(t0: float, t_end: float, jobs: int) -> bool:
    """Start another job only if, at the mean job length so far, less than
    half of it would run past t_end; runs then last about --seconds."""
    now = time.perf_counter()
    return now + (now - t0) / jobs / 2 < t_end


def run_untraced(workload, p, truth, seconds, ledger):
    workers = 2 if workload == "sgd-analyze-long" else 1
    steps = steps_for(workload, p, truth, workers)
    ops = sum(s.ops for s in steps)
    samples = {"turns_per_s": [], "cpu_ms_per_turn": [], "peak_rss_mb": [], "setup_s": []}
    unscaled = {"unscaled_turns_per_s": [], "probe_ms": []}
    t0 = time.perf_counter()
    t_end, jobs = t0 + seconds, 0
    while True:
        jobs += 1
        result = run_job(p, {"calls": [s.argv for s in steps]})
        ledger.record(steps, result)
        if result is not None:
            probes = result["probes_s"]
            samples["turns_per_s"].append(ops / speed.scale(result["wall_s"], probes))
            samples["cpu_ms_per_turn"].append(1000 * speed.scale(result["cpu_s"], probes) / ops)
            unscaled["unscaled_turns_per_s"].append(ops / result["wall_s"])
            unscaled["probe_ms"].append(1000 * statistics.mean(probes))
            samples["peak_rss_mb"].append(
                (result["rss_kb"] + workers * result["child_rss_kb"]) / 1024)
        for _ in range(SETUP_PER_JOB):
            samples["setup_s"].append(measure_setup(p))
        if not _another_job(t0, t_end, jobs):
            break
    if not samples["turns_per_s"]:
        raise RuntimeError("no job completed")
    while len(samples["setup_s"]) < SETUP_MIN:
        samples["setup_s"].append(measure_setup(p))
    return samples, unscaled


def run_traced(workload, p, truth, seconds, ledger):
    steps = steps_for(workload, p, truth, 1)
    calls = [s.argv for s in steps]
    untraced, traced, layers, probes = [], [], [], []
    t0 = time.perf_counter()
    t_end, jobs = t0 + seconds, 0
    while True:
        jobs += 1
        plain = run_job(p, {"calls": calls})
        ledger.record(steps, plain)
        spans = run_job(p, {"calls": calls, "trace": str(p.spans)})
        ledger.record(steps, spans)
        if plain is not None and spans is not None:
            untraced.append(plain["wall_s"] - sum(plain["probes_s"]))
            traced.append(spans["wall_s"])
            layers.append(tracing.summarize(tracing.load_spans(p.spans)))
            p.spans.unlink()
        if workload == "sgd-analyze-long":
            probe = run_job(p, {"probe": str(p.sgd)})
            if probe is not None:
                probes.append(probe)
        if not _another_job(t0, t_end, jobs):
            break
    if not layers:
        raise RuntimeError("no traced job completed")
    for name in tracing.count_drift(layers):
        ledger.note(f"FAILED CHECK: {name} differs between traced jobs")
        ledger.correct = False
    metrics = tracing.combine(layers)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    metrics["analysis.pool_efficiency"] = (
        statistics.median(x["w1_s"] for x in probes)
        / (2 * statistics.median(x["w2_s"] for x in probes)) if probes else 0.0)
    return metrics, len(traced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dialoscope benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = srcpath.ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    p = Paths(work)
    try:
        p.out.mkdir(parents=True)
        gen.generate(p.src, args.seed)
        truth = json.loads((p.src / "truth.json").read_text("utf-8"))
        ledger = Ledger()
        t0 = time.perf_counter()
        if args.workload == "sgd-analyze-long" and not args.trace:
            # the --workers 1 report every --workers 2 report must equal
            reference = steps_for(args.workload, p, truth, 1)
            run_job(p, {"calls": [s.argv for s in reference]})
        lines = [f"perfbench {args.workload} seed={args.seed} trace={args.trace}"]
        if args.trace:
            layer, jobs = run_traced(args.workload, p, truth, args.seconds, ledger)
            metrics = {k: {"value": layer[k], "unit": unit}
                       for k, unit in tracing.LAYER_METRICS.items()}
            lines.append(f"  {jobs} traced and {jobs} untraced jobs "
                         f"in {time.perf_counter() - t0:.1f} s")
            lines += [f"  {k:36s} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
        else:
            samples, unscaled = run_untraced(args.workload, p, truth, args.seconds, ledger)
            values = {k: statistics.median(v) for k, v in samples.items()}
            values["ok_ops_ratio"] = 1 - ledger.failed / ledger.attempted
            metrics = {k: {"value": values[k], "unit": unit}
                       for k, unit in END_TO_END.items()}
            lines.append(f"  {len(samples['turns_per_s'])} jobs "
                         f"in {time.perf_counter() - t0:.1f} s")
            for k, unit in END_TO_END.items():
                detail = _spread(samples[k]) if k in samples else ""
                lines.append(f"  {k:18s} {values[k]:12.6g} {unit:6s} {detail}")
            for k, v in unscaled.items():  # not metrics: what the scaling started from
                lines.append(f"  ({k}) {statistics.median(v):.6g}, {_spread(v)}")
        lines.append(f"  {'failed_ops_ratio':18s} {ledger.failed / ledger.attempted:12.6g} "
                     f"{'ratio':6s} {ledger.failed} of {ledger.attempted} per-turn "
                     f"operations ({ledger.known} on the known comma defect)")
        lines += ["  " + m for m in ledger.messages]
        print("\n".join(lines))
        print(json.dumps({"correct": ledger.correct, "attempted": ledger.attempted,
                          "failed": ledger.failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
