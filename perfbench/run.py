#!/usr/bin/env python3
"""Campaign benchmark: three workloads through the public campaign entry points.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-thm1 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

The script builds perfbench/runner.exe and bin/serve.exe from source, renders
the reference output of the generated cells once (untimed), then starts a
fresh runner process for every timed repetition until --seconds have been
measured.  Each repetition is gated for correctness; a failing repetition
counts in `failed` and its times are not used.  The medians of the passing
repetitions are reported.

With --trace 1 it instead runs five plain repetitions for the untraced
median, then one traced runner, and reports the per-layer metrics.

Every repetition prints one stamped JSON record; the last line of stdout is
the summary object {"correct", "attempted", "failed", "metrics"}.
"""

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

HERE = "perfbench"
WORK = os.path.join(HERE, "_work")
BUILD = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
RUNNER = os.path.join(BUILD, "default", HERE, "runner.exe")
SERVE = os.path.join(BUILD, "default", "bin", "serve.exe")
MIN_REPS = 3
TRACE_REPS = 5
# Everything after the build must end within 180 s; leave room to clean up.
WATCHDOG_S = 170

with open("BENCHMARK.json") as f:
    SPEC = json.load(f)
children = []


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def die(msg, code=2):
    log("perfbench: " + msg)
    sys.exit(code)


def on_watchdog(_signum, _frame):
    for p in children:
        try:
            os.killpg(p.pid, signal.SIGKILL)
            p.wait()
        except (ProcessLookupError, ChildProcessError, PermissionError):
            pass
        # The runner's servers and their job children share its process
        # group; wait until the last of them is gone.
        deadline = time.time() + 5
        while time.time() < deadline:
            try:
                os.killpg(p.pid, 0)
            except (ProcessLookupError, PermissionError):
                break
            time.sleep(0.02)
    die("watchdog: invocation exceeded %d s" % WATCHDOG_S, 3)


def spawn(args, **kw):
    # Own session, so the watchdog can kill the runner and its servers.
    p = subprocess.Popen(args, start_new_session=True, **kw)
    children.append(p)
    return p


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        die("run from the root of a checkout of the repository (dune-project, lib/, bin/ missing)")
    if shutil.which("dune") is None:
        die("dune not found on PATH")
    cmd = ["dune", "build", "--root", ".", "--cache=disabled", "--build-dir", BUILD,
           os.path.join(HERE, "runner.exe"), os.path.join("bin", "serve.exe")]
    p = spawn(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if p.wait() != 0:
        die("build failed: " + " ".join(cmd))


def stamps(workload, seed):
    def out(cmd):
        try:
            r = subprocess.run(cmd, capture_output=True, text=True, timeout=20)
            return r.stdout.strip() if r.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            return None

    commit = out(["git", "rev-parse", "HEAD"])
    if not commit:
        # Not a git checkout: identify the tree by the sources it builds.
        h = hashlib.sha256()
        for top in ["dune-project", "dune", "lib", "bin", HERE]:
            paths = [top] if os.path.isfile(top) else sorted(
                os.path.join(d, f) for d, ds, fs in os.walk(top)
                for f in fs if not d.startswith(WORK))
            for path in paths:
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
        commit = "tree-" + h.hexdigest()[:16]
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "ocaml": out(["ocamlfind", "ocamlopt", "-version"]) or out(["ocamlopt", "-version"]) or "unknown",
        "OCAMLRUNPARAM": os.environ.get("OCAMLRUNPARAM", ""),
        "seed": seed,
        "workload": workload,
    }


def runner(mode, workload, seed, *extra):
    return [RUNNER, mode, "-w", workload, "-s", str(seed), "--work", WORK, "--serve", SERVE, *extra]


def render_reference(workload, seed):
    path = os.path.join(WORK, "ref-%s-%d.txt" % (workload, seed))
    p = spawn(runner("reference", workload, seed, "--out", path), stdout=sys.stderr)
    if p.wait() != 0:
        die("reference rendering failed for %s" % workload)
    with open(path) as f:
        cells = sum(1 for line in f if line.strip())
    return path, cells


def one_rep(workload, seed, ref, *extra):
    """One timed campaign in a fresh runner process; None if it crashed."""
    t_spawn = time.time()
    p = spawn(runner("timed", workload, seed, "--ref", ref, *extra), stdout=subprocess.PIPE)
    out = p.stdout.read()
    _, status, ru = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    children.remove(p)
    lines = out.decode().strip().splitlines()
    if p.returncode != 0 or not lines:
        log("perfbench: runner exited with %d" % p.returncode)
        return None
    r = json.loads(lines[-1])
    return {
        "setup_s": r["dispatch"] - t_spawn,
        "campaign_s": r["done"] - r["dispatch"],
        "cpu_s": r["cpu_s"],
        # ru_maxrss covers the runner and every descendant it reaped.
        "peak_rss_mb": ru.ru_maxrss / 1024.0,
        "cells": r["cells"],
        "failed": r["failed"],
        "reasons": r["reasons"],
        "wall_s": time.time() - t_spawn,
    }


UNITS = {"setup_s": "s", "campaign_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def timed_reps(workload, seed, ref, cells, stamp, budget_s, min_reps, *extra):
    """Repetitions until the next one would overrun the budget."""
    reps, start = [], time.time()
    while True:
        walls = [r["wall_s"] for r in reps]
        if len(reps) >= min_reps and time.time() - start + statistics.median(walls) > budget_s:
            break
        r = one_rep(workload, seed, ref, *extra)
        if r is None:
            r = {"cells": cells, "failed": cells, "reasons": ["runner crashed"], "wall_s": 0.0}
        reps.append(r)
        record = dict(stamp, record="timed" + ("-no-obs" if extra else ""), run_index=len(reps) - 1,
                      attempted=r["cells"], failed=r["failed"], reasons=r["reasons"],
                      failed_frac={"value": r["failed"] / max(1, r["cells"]), "unit": "ratio"},
                      metrics={k: {"value": r[k], "unit": u} for k, u in UNITS.items() if k in r})
        print(json.dumps(record), flush=True)
    return reps


def medians(reps):
    """Medians over the passing repetitions; empty when none passed."""
    ok = [r for r in reps if r["failed"] == 0]
    return {k: statistics.median(r[k] for r in ok) for k in UNITS} if ok else {}


def end_to_end(workload, seed, seconds, stamp):
    ref, cells = render_reference(workload, seed)
    reps = timed_reps(workload, seed, ref, cells, stamp, seconds, MIN_REPS)
    attempted = sum(r["cells"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    m = medians(reps)
    passing = sum(1 for r in reps if r["failed"] == 0)
    log("%-17s %d runs (%d passing)  %s  failed_frac %.4f"
        % (workload, len(reps), passing, "  ".join("%s %.4f" % kv for kv in m.items()) or "no medians",
           failed / max(1, attempted)))
    return {
        "correct": failed == 0 and passing > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in m.items()},
    }


def traced(workload, seed, stamp):
    ref, cells = render_reference(workload, seed)
    reps = timed_reps(workload, seed, ref, cells, stamp, 0, TRACE_REPS)
    untraced = medians(reps).get("campaign_s", 0.0)
    no_obs = []
    if workload == "sweep-traced":
        no_obs = timed_reps(workload, seed, ref, cells, stamp, 0, TRACE_REPS, "--no-obs")
    p = spawn(runner("traced", workload, seed, "--ref", ref), stdout=subprocess.PIPE)
    out, _ = p.communicate()
    children.remove(p)
    lines = out.decode().strip().splitlines()
    if p.returncode != 0 or not lines:
        die("traced runner exited with %d" % p.returncode)
    r = json.loads(lines[-1])
    values = r["metrics"]
    no_obs_s = medians(no_obs).get("campaign_s")
    values["obs.overhead_ratio"] = untraced / no_obs_s if untraced and no_obs_s else 0.0
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    with open(os.path.join(HERE, "layers.json")) as f:
        info = json.load(f)
    log("per-layer metrics, %s seed %d (traced run; 0 marks a layer this workload does not exercise)"
        % (workload, seed))
    log("  %-26s %16s %-7s %-9s %s" % ("metric", "value", "unit", "layer", "moves"))
    for name, unit in units.items():
        log("  %-26s %16.6f %-7s %-9s %s" % (name, values[name], unit, info[name]["layer"], info[name]["moves"]))
    log("  cell.tail_ms is p%g of %d cells, %d beyond it"
        % (values["cell.tail_pct"], values["cell.count"], values["cell.tail_beyond"]))
    log("tracing overhead: traced campaign_s %.4f vs untraced median %.4f (x%.3f)"
        % (r["campaign_s"], untraced, r["campaign_s"] / untraced if untraced else 0.0))
    attempted = sum(x["cells"] for x in reps + no_obs) + r["cells"]
    failed = sum(x["failed"] for x in reps + no_obs) + r["failed"]
    print(json.dumps(dict(stamp, record="traced", campaign_s=r["campaign_s"], untraced_campaign_s=untraced,
                          failed=r["failed"], reasons=r["reasons"])), flush=True)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main():
    workloads = [w["name"] for w in SPEC["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    build()
    # The first build in a checkout may take long; the runs after it may not.
    signal.signal(signal.SIGALRM, on_watchdog)
    if a.workload != "all":
        signal.alarm(WATCHDOG_S)
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    if a.workload == "all":
        summary = {}
        for w in workloads:
            stamp = stamps(w, a.seed)
            summary[w] = traced(w, a.seed, stamp) if a.trace else end_to_end(w, a.seed, a.seconds, stamp)
        print(json.dumps(summary))
        return
    stamp = stamps(a.workload, a.seed)
    result = traced(a.workload, a.seed, stamp) if a.trace else end_to_end(a.workload, a.seed, a.seconds, stamp)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
