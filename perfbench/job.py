"""One benchmark job in a fresh interpreter.

    python3 perfbench/job.py SPEC.json

SPEC is {"calls": [argv, ...], "trace": SPANS_PATH or null} for a job,
a fixed sequence of `dialoscope.cli.main` calls, or {"probe": SGD_PATH}
to time `analyze_corpus` with one and with two workers. The interpreter
start and the package import fall outside the timed region; the
benchmark reports them as set-up time. An untraced job takes the host
speed probe (speed.py) every PROBE_EVERY_S of wall time, from a timer
signal, so the probe runs in the job's own thread. Prints one JSON
object.
"""
from __future__ import annotations

import contextlib
import json
import os
import resource
import signal
import sys
import time
import traceback

import speed
import srcpath  # noqa: F401
from dialoscope import analysis, cli, corpus, normalize

# about 2% of the job's time goes to probing; speed.scale takes it out
PROBE_EVERY_S = 0.05


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_calls(calls, tracer=None) -> dict:
    codes, errors, probes = [], [], []
    if tracer is None:  # in a traced job the probes would land in the spans
        signal.signal(signal.SIGALRM, lambda *_: probes.append(speed.probe()))
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    with open(os.devnull, "w") as sink:
        cpu0, t0 = _cpu_s(), time.perf_counter()
        for job_id, argv in enumerate(calls):
            if tracer is not None:
                tracer.job = job_id
            try:
                with contextlib.redirect_stdout(sink):
                    code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
                errors.append(f"{argv[0]}: exit {exc.code}")
            except Exception:  # a crash fails this call; the job goes on
                code = None
                errors.append(f"{argv[0]}: {traceback.format_exc(limit=3)}")
            codes.append(code)
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
    return {"wall_s": wall, "cpu_s": cpu, "probes_s": probes,
            "codes": codes, "errors": errors,
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "child_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}


def probe_pool(sgd_path) -> dict:
    corp = corpus.load_sgd(sgd_path, "test")
    lexicon = normalize.default_lexicon()
    walls = {}
    for workers in (1, 2):
        t0 = time.perf_counter()
        analysis.analyze_corpus(corp, lexicon, None, workers=workers)
        walls[f"w{workers}_s"] = time.perf_counter() - t0
    return walls


def main(spec_path) -> int:
    with open(spec_path, "r", encoding="utf-8") as f:
        spec = json.load(f)
    if "probe" in spec:
        result = probe_pool(spec["probe"])
    elif spec.get("trace"):
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        try:
            result = run_calls(spec["calls"], tracer)
        finally:
            tracer.uninstall()
        tracer.dump(spec["trace"])
    else:
        result = run_calls(spec["calls"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
