"""One workload run in a fresh process (started by run.py).

Set-up (timed from the parent's process start, passed as --t0): import
germforge, generate the seeded inputs, run one untimed warm-up job.  Then
the timed batch: whole rounds, one job at a time, until --seconds of batch
time have passed.  A calibration sampler (calib.py) runs throughout; every
time is reported both raw and at the reference host speed.  Peak RSS is read
when the batch ends; only then are the outputs checked, so neither the
oracles' time nor their memory is counted.  The result is one JSON line on
stdout.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calib  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402

MAX_ROUND_ATTEMPTS = 20


def fresh_round(workload, seed, index, seen):
    """Round `index`, redrawn deterministically until no input repeats one
    already used in this run."""
    for attempt in range(MAX_ROUND_ATTEMPTS):
        tag = index if attempt == 0 else "%d.%d" % (index, attempt)
        jobs = workloads.build_round(workload, seed, tag)
        keys = [workloads.job_key(j) for j in jobs]
        if len(set(keys)) == len(keys) and not seen.intersection(keys):
            seen.update(keys)
            return jobs, keys
    raise RuntimeError("could not draw a round without repeated inputs")


def verdict(runner, job, out, error):
    """"ok", "wrong", "known:<defect>", "failed" or "failed:<defect>"."""
    if error is None and "argv" in job and out[0] != 0:
        error = ("exit", out[0])
        job["traceback"] = out[2]
    if error is not None:
        shape = oracles.known_failure(job, error) if "entry" in job else None
        return "failed:" + shape if shape else "failed"
    try:
        return runner.verdict(job, out)
    except Exception:
        job["traceback"] = traceback.format_exc(limit=3)
        return "wrong"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--short-only", action="store_true",
                    help="run only the first round's short jobs")
    args = ap.parse_args()

    sampler = calib.Sampler()
    sampler.start()
    runner = workloads.Runner(args.workload, args.out_dir)
    warm = workloads.build_warmup(args.workload, args.seed)
    seen = {workloads.job_key(warm)}
    first, keys = fresh_round(args.workload, args.seed, 0, seen)
    runner.run(warm)
    setup_end = time.perf_counter()
    setup_raw = setup_end - args.t0 - sampler.spent
    sampler.sample(calib.MIN_SAMPLES)
    setup_s = setup_raw * sampler.factor(args.t0, setup_end)
    if args.setup_only:
        sampler.stop()
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw}))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(clock=sampler.clock)
        tracer.install()

    records = []  # [job, round, index, raw s, wall span, output, error]
    normalized = 0.0
    rounds = 0
    jobs = first
    while True:
        start = len(records)
        for index, job in enumerate(jobs):
            if args.short_only and job.get("long"):
                continue
            w0, c0 = time.perf_counter(), sampler.clock()
            try:
                out, err = runner.run(job), None
            except Exception as exc:
                out, err = None, ("raise", type(exc).__name__)
                job["traceback"] = traceback.format_exc(limit=3)
            c1, w1 = sampler.clock(), time.perf_counter()
            records.append([job, rounds, index, c1 - c0, (w0, w1), out, err])
        rounds += 1
        if args.short_only:
            break
        normalized += sum(r[3] * sampler.factor(*r[4])
                          for r in records[start:])
        if normalized >= args.seconds:
            break
        jobs, _ = fresh_round(args.workload, args.seed, rounds, seen)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sampler.sample(calib.MIN_SAMPLES)
    sampler.stop()
    if tracer:
        tracer.uninstall()
    raw = [r[3] for r in records]
    norm = [r[3] * sampler.factor(*r[4]) for r in records]
    layer = None
    if tracer:
        # per-layer seconds at the reference speed, by the run's mean factor
        scale = sum(norm) / sum(raw)
        layer = {k: (v * scale if u == "s" else v, u)
                 for k, (v, u) in tracer.metrics(sum(raw)).items()}

    verdicts = {}
    unexpected = []
    for job, _rnd, _idx, _sec, _span, out, err in records:
        v = verdict(runner, job, out, err)
        verdicts[v] = verdicts.get(v, 0) + 1
        if v in ("failed", "wrong") and len(unexpected) < 5:
            unexpected.append({"job": workloads.job_key(job)[:300],
                               "verdict": v,
                               "error": job.get("traceback") or err})
    print(json.dumps({
        "setup_s": setup_s,
        "setup_raw_s": setup_raw,
        "rounds": rounds,
        "jobs_sha256": hashlib.sha256(
            "\n".join(keys).encode()).hexdigest(),
        "job_ids": [[r[1], r[2]] for r in records],
        "job_seconds": norm,
        "job_raw_seconds": raw,
        "verdicts": verdicts,
        "unexpected": unexpected,
        "peak_rss_mb": peak_rss_mb,
        "calibration": sampler.summary(),
        "layers": {k: list(v) for k, v in layer.items()} if layer else None,
        "absent": tracer.absent if tracer else [],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
