"""germforge benchmark: one workload run, end-to-end or traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload germ-algebra --seed 1 --seconds 5 \\
        --trace 0

Workloads: germ-algebra, transition-sets, region-catalog (see
workloads.py for what each exercises and why).  Each run is a closed loop
with one client, one process and one thread, in a fresh worker process, so
sympy's cache and the peak RSS start clean.

Times are reported at a reference host speed (calib.py): a timer samples a
fixed kernel throughout each worker, and each span is scaled by the
reference kernel time over the kernel times measured around it.  The raw
figures are printed beside them.

--trace 0 prints the end-to-end metrics: setup_s is the median of three
set-ups (three processes, each timed from its start to the moment its first
timed job could start); the other metrics come from the last of them, which
also runs the timed batch.  jobs_per_s counts completed jobs only: those
whose output is correct or shows a catalogued defect.  --trace 1 prints the
per-layer metrics of a traced batch, and trace.overhead_frac: the traced
time of the first round's short jobs over their time in an untraced
process, minus one.

Every job's output is checked against an independent reference after its
timer stops.  Known seed defects (see oracles.py) count as wrong outputs,
known seed failures as failures; ``correct`` is false when any output is
wrong, or any job fails, in a way that is not catalogued.  The last line of
stdout is the JSON result.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from calib import REF_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 3
RUN_BUDGET_S = 170.0


def worker(args, out_dir, deadline, *extra):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out-dir", out_dir,
           "--t0", repr(time.perf_counter())] + list(extra)
    # sympy's internal orderings follow string hashes: fix the hash seed so
    # that a job's work does not change from one process to the next
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError("worker failed (%d):\n%s" % (proc.returncode,
                                                        proc.stderr[-3000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_latency(times):
    """Latency at the highest percentile that leaves at least 10 jobs above
    it, with that percentile; None below 20 jobs."""
    n = len(times)
    if n < 20:
        return None
    ordered = sorted(times)
    return ordered[n - 11], 100.0 * (n - 10) / n


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    from importlib import metadata

    versions = {}
    for pkg in ("sympy", "numpy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "absent"
    return {"python": platform.python_version(), "sympy": versions["sympy"],
            "numpy": versions["numpy"], "nproc": os.cpu_count(), "cpu": cpu,
            "commit": commit}


def completed(verdicts):
    """Jobs that returned an output: correct, or a catalogued wrong one."""
    return sum(n for v, n in verdicts.items()
               if v == "ok" or v.startswith("known:"))


def end_to_end(args, out_dir, deadline):
    setups = [worker(args, out_dir, deadline, "--setup-only")
              for _ in range(SETUPS - 1)]
    res = worker(args, out_dir, deadline)
    setups.append(res)
    n = len(res["job_seconds"])
    done = completed(res["verdicts"])
    times, raw = res["job_seconds"], res["job_raw_seconds"]
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "jobs_per_s": (done / sum(times), "1/s"),
        "job_p50_s": (statistics.median(times), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    cal = res["calibration"]
    lines = ["setup_s %.6f s (median of %d set-ups; raw %.6f s)"
             % (metrics["setup_s"][0], len(setups),
                statistics.median(s["setup_raw_s"] for s in setups)),
             "jobs_per_s %.6f 1/s (%d completed of %d jobs in %.3f s, "
             "%d rounds; raw %.6f 1/s)"
             % (metrics["jobs_per_s"][0], done, n, sum(times),
                res["rounds"], done / sum(raw)),
             "job_p50_s %.6f s (%d jobs; raw %.6f s)"
             % (metrics["job_p50_s"][0], n, statistics.median(raw))]
    tail = tail_latency(times)
    if tail:
        lines.append("job_tail_s %.6f s (p%.1f, %d jobs, 10 above)"
                     % (tail[0], tail[1], n))
    else:
        lines.append("job_tail_s omitted (%d jobs, fewer than 20)" % n)
    failed = sum(c for v, c in res["verdicts"].items()
                 if v.startswith("failed"))
    wrong = n - failed - res["verdicts"].get("ok", 0)
    lines += ["failed_frac %.6f frac (%d of %d jobs)" % (failed / n, failed,
                                                         n),
              "wrong_frac %.6f frac (%d of %d jobs)" % (wrong / n, wrong, n),
              "peak_rss_mb %.3f MB" % res["peak_rss_mb"],
              "calibration: %d samples, median %.6f s (p10 %.6f, p90 %.6f),"
              " reference %.6f s" % (cal["samples"], cal["median_s"],
                                     cal["p10_s"], cal["p90_s"], REF_S)]
    return res, metrics, lines


def traced(args, out_dir, deadline):
    """The traced batch, and an untraced run of the first round's short
    jobs in its own process for trace.overhead_frac."""
    plain = worker(args, out_dir, deadline, "--short-only")
    res = worker(args, out_dir, deadline, "--trace")
    metrics = {k: tuple(v) for k, v in res["layers"].items()}
    traced_s = dict(zip(map(tuple, res["job_ids"]), res["job_seconds"]))
    pairs = [(t, traced_s[tuple(i)])
             for i, t in zip(plain["job_ids"], plain["job_seconds"])]
    metrics["trace.overhead_frac"] = (
        sum(t for _p, t in pairs) / sum(p for p, _t in pairs) - 1.0, "frac")
    lines = ["%s %r %s" % (k, v[0], v[1]) for k, v in sorted(metrics.items())]
    lines.append("trace.overhead_frac is measured on %d short jobs"
                 % len(pairs))
    if res["absent"]:
        lines.append("absent (reported as 0): " + ", ".join(res["absent"]))
    for key in ("wrong", "failed"):
        unexpected = max(r["verdicts"].get(key, 0) for r in (plain, res))
        if unexpected:
            res["verdicts"][key] = unexpected
    return res, metrics, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "germforge",
                                       "__init__.py")):
        print("error: no germforge sources under %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    out_dir = os.path.join(ROOT, ".bench_out", str(os.getpid()))
    os.makedirs(out_dir, exist_ok=True)
    try:
        if args.trace:
            res, metrics, lines = traced(args, out_dir, deadline)
        else:
            res, metrics, lines = end_to_end(args, out_dir, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(out_dir))
        except OSError:
            pass

    verdicts = res["verdicts"]
    unexpected = verdicts.get("wrong", 0) + verdicts.get("failed", 0)
    print("workload %s seed %d trace %d" % (args.workload, args.seed,
                                            args.trace))
    for line in lines:
        print("  " + line)
    for prefix, what in (("known:", "known defects (wrong outputs)"),
                         ("failed:", "known failures")):
        known = sorted((k[len(prefix):], v) for k, v in verdicts.items()
                       if k.startswith(prefix))
        print("  %s: %s" % (what, ", ".join("%s=%d" % kv for kv in known)
                            or "none"))
    print("  unexpected wrong outputs: %d, unexpected failures: %d"
          % (verdicts.get("wrong", 0), verdicts.get("failed", 0)))
    for item in res["unexpected"]:
        print("    %s: %s" % (item["verdict"], item["job"]))
        print("      " + str(item["error"]).strip().replace("\n",
                                                            "\n      "))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "jobs_sha256": res["jobs_sha256"],
                      "verdicts": res["verdicts"],
                      "environment": environment()}, sort_keys=True))
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": len(res["job_seconds"]),
        "failed": sum(v for k, v in verdicts.items()
                      if k.startswith("failed")),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
