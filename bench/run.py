#!/usr/bin/env python3
"""densalg benchmark: exact-answer workloads timed end to end and per layer.

    python3 bench/run.py --workload algebra --seed 1 --seconds 20 --trace 0

One process, one thread, one client in a closed loop: each job is sent only
after the previous one has returned.  The run walks the workload's catalogue
of passes (see workloads.py) until ``--seconds`` have passed, finishing the
pass in progress.  Every job's exact printed result is hashed and compared
with ``references/<workload>.jsonl`` outside the timed interval, together
with the workload's independent checks.  Times are calibrated against
machine speed (SpeedProbe).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
first runs passes untraced for half the time, then replays the same passes
with spans on every layer boundary (spans.py); it reports the per-layer
metrics of the first traced pass, the tracing overhead, and writes that
pass's spans to ``out/spans-<workload>-<seed>.tsv.gz``.

A human-readable report goes to stderr; the last line of stdout is the JSON
result.  ``--record`` rewrites the references from the current code.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCES = BENCH / "references"
OUT = BENCH / "out"
SETUP_PROBES = 5
SETUP_CALIBRATIONS = 20
PROBE_INTERVAL_S = 0.02
PROBE_REF_S = 0.001
SHOW_FAILURES = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true", help="rewrite the reference answers")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def log(msg=""):
    sys.stderr.write(msg + "\n")


# ---------------------------------------------------------------------------
# Running and checking jobs
# ---------------------------------------------------------------------------

def calibration_loop():
    """Fixed pure-Python work in the workloads' mix of Fraction and dict churn."""
    acc = {}
    f = Fraction(3, 7)
    for i in range(250):
        k = (i % 97, (i * 7) % 13)
        acc[k] = acc.get(k, 0) + f * (i % 5 - 2)
        if not acc[k]:
            del acc[k]


class SpeedProbe:
    """Samples machine speed by timing calibration_loop.

    The sandbox's speed swings by up to 2x within seconds, so each job is
    scaled by the probe samples taken during it (a SIGALRM timer every
    PROBE_INTERVAL_S) and just before and after it.  A calibrated second is
    a second on a machine where calibration_loop takes PROBE_REF_S.
    """

    def __init__(self):
        self.samples = []
        self.in_handler = 0.0  # seconds spent sampling from the timer

    def sample(self):
        t0 = time.perf_counter()
        calibration_loop()
        d = time.perf_counter() - t0
        self.samples.append(d)
        return d

    def _on_alarm(self, signum, frame):
        self.in_handler += self.sample()

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_pass(jobs, probe, rec=None):
    """Time each job of one pass, closed loop.

    Returns (calibrated latencies, raws).  A latency excludes the probe
    samples taken inside the job and is scaled by PROBE_REF_S over the mean
    probe sample from just before the job to just after it.
    """
    job_span = rec.name_id("job") if rec else None
    latencies, raws = [], []
    perf = time.perf_counter
    probe.sample()
    for k, job in enumerate(jobs):
        first, handled = len(probe.samples) - 1, probe.in_handler
        if rec:
            rec.job = k
            span = rec.open(job_span)
        ts = perf()
        try:
            raw, err = job.run(), None
        except Exception:
            raw, err = None, traceback.format_exc()
        elapsed = perf() - ts - (probe.in_handler - handled)
        if rec:
            rec.close(span)
        probe.sample()
        latencies.append(elapsed * PROBE_REF_S / statistics.fmean(probe.samples[first:]))
        raws.append((raw, err))
    return latencies, raws


def answer(job, raw):
    """(sha256 of the exact printed result, size, failed checks)."""
    text, size, problems = job.verify(raw)
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), size, problems


def verify_pass(jobs, raws, refs, failures):
    """Compare each answer with its reference; append failures."""
    for job, (raw, err), ref in zip(jobs, raws, refs):
        if err is not None:
            failures.append("%s raised:\n%s" % (job.id, err))
            continue
        try:
            digest, size, problems = answer(job, raw)
        except Exception:
            failures.append("%s: checking the answer raised:\n%s" % (job.id, traceback.format_exc()))
            continue
        if ref["id"] != job.id:
            problems.append("reference is for %s" % ref["id"])
        elif (digest, size) != (ref["sha256"], ref["size"]):
            problems.append("answer differs from the reference: %s %s" % (digest[:16], size))
        if problems:
            failures.append("%s: %s" % (job.id, "; ".join(problems)))


def load_references(name):
    by_pass = {}
    with open(REFERENCES / (name + ".jsonl"), encoding="utf-8") as fh:
        for line in fh:
            ref = json.loads(line)
            by_pass.setdefault(ref["pass"], []).append(ref)
    return by_pass


def record(wl):
    """Run the whole catalogue once and write its reference answers."""
    REFERENCES.mkdir(exist_ok=True)
    lines = []
    for p in range(wl.passes):
        jobs = wl.make_pass(p)
        _, raws = run_pass(jobs, SpeedProbe())
        for job, (raw, err) in zip(jobs, raws):
            if err is not None:
                raise RuntimeError("%s raised:\n%s" % (job.id, err))
            digest, size, problems = answer(job, raw)
            if problems:
                raise RuntimeError("%s fails its checks: %s" % (job.id, problems))
            lines.append(json.dumps({"pass": p, "id": job.id, "sha256": digest, "size": size}))
        log("recorded pass %d/%d" % (p + 1, wl.passes))
    with open(REFERENCES / (wl.name + ".jsonl"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

class Run:
    """Walks the catalogue in seeded order; keeps walls, latencies, failures.

    A pass's wall is the sum of its calibrated job latencies: the time of
    the whole timed job list, back to back.
    """

    def __init__(self, wl, seed, refs, probe):
        self.wl, self.refs, self.probe = wl, refs, probe
        self.order = wl.pass_order(seed)
        self.walls, self.latencies, self.failures = [], [], []
        self.passes = []
        self.attempted = 0

    def one_pass(self, p, rec=None):
        jobs = self.wl.make_pass(p)
        if rec:
            rec.active = True
        try:
            latencies, raws = run_pass(jobs, self.probe, rec)
        finally:
            if rec:
                rec.active = False
        verify_pass(jobs, raws, self.refs[p], self.failures)
        self.attempted += len(jobs)
        return math.fsum(latencies), latencies

    def until(self, deadline):
        """Run passes in order until the deadline, finishing the pass in progress."""
        while True:
            k = len(self.passes)
            if k == len(self.order):
                log("note: catalogue exhausted; passes repeat from here")
            p = self.order[k % len(self.order)]
            wall, latencies = self.one_pass(p)
            self.passes.append(p)
            self.walls.append(wall)
            self.latencies += latencies
            if time.perf_counter() >= deadline:
                return


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def setup_times(workload, seed):
    """Set-up time of fresh processes: import densalg, build the first inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.split()[-1]))
    return times


def end_to_end(args, wl, refs):
    setup = setup_times(args.workload, args.seed)
    with SpeedProbe() as probe:
        run = Run(wl, args.seed, refs, probe)
        run.until(time.perf_counter() + args.seconds)
    n = len(run.latencies)
    log("%d passes, %d jobs; p90 leaves %d jobs beyond it" % (
        len(run.walls), n, n - math.ceil(0.9 * n)))
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(run.walls),
        "job_p50_ms": 1000 * statistics.median(run.latencies),
        "job_p90_ms": 1000 * percentile(run.latencies, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return run, values


def traced(args, wl, refs):
    import spans

    start = time.perf_counter()
    with SpeedProbe() as probe:
        run = Run(wl, args.seed, refs, probe)
        run.until(start + args.seconds / 2)
        rec = spans.Recorder()
        spans.install(rec)
        first, ratios = None, []
        for p, untraced_wall in zip(run.passes, run.walls):
            wall, _ = run.one_pass(p, rec)
            trace = rec.take()
            if first is None:
                first = trace
            ratios.append(wall / untraced_wall)
            if time.perf_counter() >= start + args.seconds:
                break
    OUT.mkdir(exist_ok=True)
    path = OUT / ("spans-%s-%d.tsv.gz" % (args.workload, args.seed))
    first.write(path)
    log("%d spans of the first traced pass written to %s" % (len(first), path.relative_to(ROOT)))
    return run, layer_metrics(first, statistics.median(ratios) - 1)


def layer_metrics(trace, overhead):
    calls, self_s, work, pin_antibrackets = trace.summary()
    c = trace.counters
    pairs = work["spoly.mul"]
    cells = c["classify.nullspace.cells"]
    return {
        "spoly.mul.calls": calls["spoly.mul"],
        "spoly.mul.self_s": self_s["spoly.mul"],
        "spoly.mul.pairs": pairs,
        "spoly.mul.useful_frac": c["spoly.mul.out_terms"] / pairs if pairs else 0.0,
        "spoly.derive.calls": calls["spoly.derive"],
        "spoly.derive.self_s": self_s["spoly.derive"],
        "spoly.add.terms_copied": work["spoly.add"],
        "spoly.substitute.calls": calls["spoly.substitute"],
        "spoly.substitute.self_s": self_s["spoly.substitute"],
        "lift.transform.self_s": self_s["lift.transform"],
        "lift.change.self_s": self_s["lift.change"],
        "lift.lift.calls": calls["lift.lift"],
        "lift.lift.self_s": self_s["lift.lift"],
        "brackets.antibracket.calls": calls["brackets.antibracket"],
        "brackets.antibracket.self_s": self_s["brackets.antibracket"],
        "brackets.divergence.calls": calls["brackets.divergence"],
        "brackets.divergence.self_s": self_s["brackets.divergence"],
        "brackets.pin.self_s": self_s["brackets.pin"],
        "brackets.ledger.self_s": self_s["brackets.ledger"],
        "brackets.pin.antibracket_calls": pin_antibrackets,
        "classify.ansatz.self_s": self_s["classify.ansatz"],
        "classify.nullspace.self_s": self_s["classify.nullspace"],
        "classify.nullspace.rows": c["classify.nullspace.rows"],
        "classify.nullspace.cols": c["classify.nullspace.cols"],
        "classify.nullspace.nnz": work["classify.nullspace"],
        "classify.nullspace.rank": c["classify.nullspace.rank"],
        "classify.nullspace.density": work["classify.nullspace"] / cells if cells else 0.0,
        "classify.kernel_dim": c["classify.kernel_dim"],
        "dsl.parse.self_s": self_s["dsl.parse"],
        "dsl.run.self_s": self_s["dsl.run"],
        "dsl.statements": work["dsl.run"],
        "printing.self_s": self_s["printing"],
        "printing.terms": work["printing"],
        "cli.main.self_s": self_s["cli.main"],
        "trace.overhead_frac": overhead,
    }


# ---------------------------------------------------------------------------

def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "densalg" / "__init__.py").is_file():
        log("bench: no densalg sources under %s; run from a full checkout" % SRC)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)

    if args.setup_probe:
        t0 = time.perf_counter()
        import workloads

        wl = workloads.WORKLOADS[args.workload]
        wl.make_pass(wl.pass_order(args.seed)[0])
        elapsed = time.perf_counter() - t0
        probe = SpeedProbe()
        speed = statistics.fmean(probe.sample() for _ in range(SETUP_CALIBRATIONS))
        print("%.9f" % (elapsed * PROBE_REF_S / speed))
        return 0

    import densalg
    import workloads

    if not Path(densalg.__file__).resolve().is_relative_to(SRC):
        log("bench: densalg imported from %s, not from %s" % (densalg.__file__, SRC))
        return 2
    if args.workload not in workloads.WORKLOADS:
        log("bench: unknown workload %r (have %s)" % (args.workload, ", ".join(workloads.WORKLOADS)))
        return 2
    wl = workloads.WORKLOADS[args.workload]
    if args.record:
        record(wl)
        return 0

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    refs = load_references(wl.name)
    run, values = (traced if args.trace else end_to_end)(args, wl, refs)

    failed = len(run.failures)
    for msg in run.failures[:SHOW_FAILURES]:
        log("FAILED " + msg)
    log("workload %s, seed %d: %d attempted, %d failed (failed_frac %.4f)" % (
        wl.name, args.seed, run.attempted, failed, failed / run.attempted))
    metrics = {}
    for m in spec:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        log("  %-32s %14.6f %s" % (m["name"], values[m["name"]], m["unit"]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
