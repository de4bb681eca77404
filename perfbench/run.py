#!/usr/bin/env python3
"""The repository benchmark: build sopr from source, run one workload,
print one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus-embedded --seed 1 \\
        --seconds 20 --trace 0

    --trace 0   end-to-end metrics (BENCHMARK.json "end_to_end")
    --trace 1   the per-layer split (BENCHMARK.json "per_layer")

The last line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Correctness gates run before any number is printed; a failed gate
prints "correct": false with no metrics and exits 1.  The full run
record (machine context, raw and calibrated figures, gate details)
goes to perfbench/out/records/.

Two further modes serve whoever tunes or checks the benchmark:

    python3 perfbench/run.py --stability 10 --workload kv-mixed
        runs the workload on 10 seeds and prints each end-to-end
        metric's median, quartiles, min/max and spread against its bound
    python3 perfbench/run.py --selftest
        perturbs each correctness gate in turn and shows that it trips

Hygiene: the load generator runs in its own process group, and this
script becomes the child subreaper, so on any exit path -- a failed
gate, an exception, SIGINT or SIGTERM -- every process it started
(sopr-server children included) is killed and reaped and every scratch
data directory removed.
"""

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
OUT = os.path.join("perfbench", "out")
BENCH_EXE = os.path.join("_build", "default", "perfbench", "sopr_bench.exe")
SERVER_EXE = os.path.join("_build", "default", "bin", "sopr_server.exe")
WORKLOADS = ["corpus-embedded", "corpus-durable", "kv-mixed"]
GATES = {
    "corpus-embedded": ["no_errors", "invariants", "restore_digest"],
    "corpus-durable": [
        "no_errors",
        "versions_dense",
        "serial_replay",
        "conflicts_match",
        "restore_digest",
    ],
    "kv-mixed": ["no_errors", "sum", "monotonic_reads", "restore_digest"],
}

PR_SET_CHILD_SUBREAPER = 36


class Interrupted(Exception):
    def __init__(self, signum):
        super().__init__(signum)
        self.signum = signum


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def become_subreaper():
    """Orphans of our children (a server whose load generator died)
    are re-parented to us, so we can reap them."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def reap_all():
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def group_alive(pgid):
    try:
        os.killpg(pgid, 0)
        return True
    except ProcessLookupError:
        return False
    except PermissionError:
        return True


def stop_group(proc):
    """Kill the load generator's process group and wait until every
    member has ended."""
    pgid = proc.pid
    if proc.poll() is None:
        try:
            os.killpg(pgid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            pass
    deadline = time.time() + 10
    while group_alive(pgid) and time.time() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            break
        reap_all()
        time.sleep(0.05)
    if proc.poll() is None:
        proc.wait()
    reap_all()


def checkout_ok():
    return all(
        os.path.exists(os.path.join(ROOT, p))
        for p in ("dune-project", "lib", "bin", "perfbench/dune")
    )


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "./perfbench/sopr_bench.exe", "./bin/sopr_server.exe"]
    r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    return r.returncode == 0


def source_rev():
    """git revision when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    if os.path.isdir(".git"):
        try:
            r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                               timeout=10)
            if r.returncode == 0:
                return r.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "out")
            for f in sorted(filenames):
                if f.endswith((".ml", ".mli", "dune")):
                    path = os.path.join(dirpath, f)
                    h.update(path.encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return "src-" + h.hexdigest()[:16]


def run_once(workload, seed, seconds, trace, perturb=None, echo=True):
    """Run the load generator; return (exit code, result dict or None)."""
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    cmd = [BENCH_EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--server-exe", SERVER_EXE, "--out", OUT, "--rev", source_rev()]
    if perturb:
        cmd += ["--perturb", perturb]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    result = None
    try:
        for line in proc.stdout:
            if echo:
                sys.stdout.write(line)
                sys.stdout.flush()
            line = line.strip()
            if line.startswith("{"):
                try:
                    result = json.loads(line)
                except ValueError:
                    result = None
        code = proc.wait()
    finally:
        stop_group(proc)
        for d in os.listdir(os.path.join(OUT, "tmp")):
            if d.startswith("%d-" % proc.pid):
                shutil.rmtree(os.path.join(OUT, "tmp", d), ignore_errors=True)
    return code, result


def stability(workload, runs, seconds, first_seed, trace):
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    specs = bench["end_to_end"] if trace == 0 else bench["per_layer"]
    values = {m["name"]: [] for m in specs}
    for k in range(runs):
        seed = first_seed + k
        t0 = time.time()
        code, result = run_once(workload, seed, seconds, trace, echo=False)
        if code != 0 or not result or not result.get("correct"):
            log("seed %d: run failed (exit %d)" % (seed, code))
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        log("seed %d done in %.1f s" % (seed, time.time() - t0))
    rows = []
    print("%s, %d runs of %s s (trace %d)" % (workload, runs, seconds, trace))
    print("%-28s %12s %12s %12s %12s %12s %8s %6s" %
          ("metric", "median", "q1", "q3", "min", "max", "spread", "bound"))
    for m in specs:
        v = values.get(m["name"], [])
        if len(v) < 2:
            continue
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = m.get("bound")
        rows.append({"name": m["name"], "median": med, "q1": q1, "q3": q3,
                     "min": min(v), "max": max(v), "spread": spread,
                     "bound": bound, "values": v})
        print("%-28s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f %6s" %
              (m["name"], med, q1, q3, min(v), max(v), spread,
               "" if bound is None else bound))
    path = os.path.join(OUT, "stability-%s-trace%d.json" % (workload, trace))
    with open(path, "w") as fh:
        json.dump({"workload": workload, "runs": runs, "seconds": seconds,
                   "first_seed": first_seed, "trace": trace, "metrics": rows}, fh, indent=1)
    log("wrote " + path)
    return 0


def selftest(seconds):
    """Each gate must pass on an honest run and trip when its input is
    perturbed."""
    ok = True
    print("%-16s %-16s %s" % ("workload", "gate", "result"))
    for w in WORKLOADS:
        code, result = run_once(w, 1, seconds, 0, echo=False)
        honest = code == 0 and result is not None and result["correct"]
        print("%-16s %-16s %s" % (w, "(none)", "passes" if honest else "FAILS"))
        ok = ok and honest
        for g in GATES[w]:
            code, result = run_once(w, 1, seconds, 0, perturb=g, echo=False)
            tripped = code != 0 and result is not None and not result["correct"]
            record = latest_record(w)
            named = record is not None and any(
                x["name"] == g and not x["ok"] for x in record.get("gates", []))
            print("%-16s %-16s %s" % (w, g, "trips" if tripped and named else "DOES NOT TRIP"))
            ok = ok and tripped and named
    return 0 if ok else 1


def latest_record(workload):
    d = os.path.join(OUT, "records")
    files = [os.path.join(d, f) for f in os.listdir(d) if f.startswith(workload + "-")]
    if not files:
        return None
    with open(max(files, key=os.path.getmtime)) as fh:
        return json.load(fh)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--perturb", help="corrupt what this gate checks (it must trip)")
    ap.add_argument("--stability", type=int, metavar="N",
                    help="run N seeds and report each metric's spread")
    ap.add_argument("--selftest", action="store_true",
                    help="show every correctness gate tripping under perturbation")
    args = ap.parse_args()

    if not checkout_ok():
        log("run.py: not the root of a sopr checkout (needs dune-project, lib/, bin/)")
        return 2
    if not (args.workload or args.selftest):
        ap.error("--workload is required")

    def on_signal(signum, _frame):
        raise Interrupted(signum)

    signal.signal(signal.SIGINT, on_signal)
    signal.signal(signal.SIGTERM, on_signal)
    become_subreaper()
    try:
        if not build():
            log("run.py: build failed")
            return 2
        if args.selftest:
            return selftest(min(args.seconds, 2))
        if args.stability:
            return stability(args.workload, args.stability, args.seconds, args.seed, args.trace)
        code, result = run_once(args.workload, args.seed, args.seconds, args.trace,
                                perturb=args.perturb)
        if result is None and code == 0:
            return 2
        return code
    except Interrupted as e:
        log("run.py: interrupted by signal %d; stopped every child" % e.signum)
        return 128 + e.signum
    finally:
        reap_all()


if __name__ == "__main__":
    sys.exit(main())
