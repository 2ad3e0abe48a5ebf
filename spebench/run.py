#!/usr/bin/env python3
"""End-to-end benchmark of the spe library and spe_serve.

    python3 spebench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of an spe checkout. Builds the library, spe_serve and
the benchmark's compiled half (spe_bench) into .bench_build/, makes the
workload's inputs from the seed, runs the fit half and the serve half
of the path in separate processes, checks their outputs, and prints as
the last line of stdout one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured
with spe::obs off; --trace 1 reports its per-layer metrics, measured
with spe::obs on. The line before it is "stamp {...}": host and build
facts, which must match for two results to be comparable. The whole
result, ladder included, is also written to
.bench_build/results/<workload>-seed<N>-trace<T>.json.

Exit status: 0 when every check passed, 1 when a check failed or a
step broke, 2 when the directory is not an spe checkout. README.md in
this directory documents the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "spebench")
REQUIRED = ["CMakeLists.txt", "src/CMakeLists.txt", "tools/spe_serve.cc"]
# Seconds each step may take before it is killed: the first build of a
# checkout compiles the whole library; the steps of a 20 s run take about
# 4, 29 and 25 s on a 4-CPU host.
BUILD_TIMEOUT_S = 840
GEN_TIMEOUT_S = 25
FIT_TIMEOUT_S = 75
SERVE_TIMEOUT_S = 75


def die(message, code=1):
    print("spebench: " + message, file=sys.stderr)
    sys.exit(code)


# The step running now: a SIGTERM or SIGINT to this script kills its
# whole process group and waits for it before exiting.
_active = None


def _stop(signum, frame):
    if _active is not None and _active.poll() is None:
        os.killpg(_active.pid, signal.SIGKILL)
        _active.wait()
    die("stopped by signal %d" % signum)


def run_step(argv, timeout, env=None, log=None):
    """Runs argv in its own process group; kills the whole group on
    timeout, so no server it started can outlive it."""
    global _active
    out = open(log, "wb") if log else subprocess.PIPE
    proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.PIPE if not log else subprocess.STDOUT,
                            env=env, cwd=ROOT, start_new_session=True)
    _active = proc
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die("%s timed out after %ss" % (os.path.basename(argv[0]), timeout))
    finally:
        _active = None
        if log:
            out.close()
    if proc.returncode != 0:
        if stderr:
            sys.stderr.write(stderr.decode(errors="replace"))
        die("%s exited with %d" % (" ".join(argv[:2]), proc.returncode))
    if stderr:
        sys.stderr.write(stderr.decode(errors="replace"))
    return stdout


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    log = os.path.join(BUILD_DIR, "build.log")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        try:
            run_step(configure, BUILD_TIMEOUT_S, log=log)
        except SystemExit:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            raise
    jobs = str(os.cpu_count() or 1)
    try:
        run_step(["cmake", "--build", BUILD_DIR, "--target", "spe_bench", "-j", jobs],
                 BUILD_TIMEOUT_S, log=log)
    except SystemExit:
        with open(log, errors="replace") as f:
            sys.stderr.write("".join(f.readlines()[-40:]))
        raise
    return os.path.join(BUILD_DIR, "spe_bench")


def step_json(binary, command, flags, timeout, env):
    argv = [binary, command]
    for key, value in flags.items():
        argv += ["--" + key, str(value)]
    start = time.monotonic()
    lines = run_step(argv, timeout, env=env).decode().strip().splitlines()
    if not lines:
        die("spe_bench %s printed nothing" % command)
    result = json.loads(lines[-1])
    result["step_s"] = time.monotonic() - start
    return result


def source_digest():
    """sha256 over the library and tool sources: stands in for the git
    sha in a checkout that is not a git repository, as an exported tree
    is."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "spebench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return ""
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)

    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        die("not an spe checkout (missing %s)" % ", ".join(missing), code=2)
    with open(os.path.join(BENCH_DIR, "config.json")) as f:
        config = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    if args.workload not in config["workloads"]:
        die("unknown workload %r (have %s)" % (args.workload, ", ".join(config["workloads"])), 2)
    if args.seconds <= 0:
        die("--seconds must be positive", 2)
    workload = config["workloads"][args.workload]

    binary = build()
    work = os.path.join(BUILD_ROOT, "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = dict(os.environ)
    env["SPE_OBS"] = "1" if args.trace else "0"

    gen = step_json(binary, "gen", {
        "dataset": workload["dataset"], "scale": workload["scale"],
        "seed": args.seed, "dir": work,
    }, GEN_TIMEOUT_S, env)
    fit = step_json(binary, "fit", {
        "dir": work, "base": workload["base"], "partner": workload["partner"],
        "cache": workload["cache"], "fits": workload["fits"],
        "seed": args.seed, "trace": args.trace,
    }, FIT_TIMEOUT_S, env)
    serve = step_json(binary, "serve", {
        "dir": work, "seconds": args.seconds,
        "ladder": ",".join(str(r) for r in config["ladder_rps"]),
        "p99-limit-ms": config["p99_limit_ms"],
        "seed": args.seed, "trace": args.trace,
    }, SERVE_TIMEOUT_S, env)

    failures = fit["failures"] + serve["failures"]
    attempted = int(fit["attempted"] + serve["attempted"])
    failed = int(fit["failed"] + serve["failed"])
    # The AUCPRC of a pinned seed is part of the behaviour: any change to
    # it is a change to what SPE computes.
    pin = config["aucprc_pins"].get(args.workload, {}).get(str(args.seed))
    attempted += 1
    if pin is not None and fit["aucprc"] != pin:
        failed += 1
        failures.append("aucprc %.17g differs from the pinned %.17g" % (fit["aucprc"], pin))

    measured = {
        "setup_s": fit["setup_s"],
        "fit_cpu_s": fit["fit_cpu_s"],
        "aucprc": fit["aucprc"],
        "serve_setup_cpu_ms": serve["serve_setup_cpu_ms"],
        "serve_p50_ms": serve["serve_p50_ms"],
        "reload_cpu_ms": serve["reload_cpu_ms"],
        "fit_peak_rss_mb": fit["peak_rss_mb"],
        "serve_peak_rss_mb": serve["serve_peak_rss_mb"],
    }
    if args.trace:
        measured = dict(fit["layers"])
        measured.update(serve["layers"])
        measured["obs.ring_dropped"] = (measured.pop("obs.fit_ring_dropped")
                                        + measured.pop("obs.serve_ring_dropped"))
    wanted = contract["per_layer"] if args.trace else contract["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in measured:
            die("metric %s was not measured" % m["name"])
        metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}

    stamp = dict(fit["stamp"])
    stamp.update(serve["stamp"])
    sha = git_sha()
    stamp["git_sha" if sha else "source_digest"] = sha or source_digest()
    correct = failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    os.makedirs(os.path.join(BUILD_ROOT, "results"), exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "results", "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        # The share of CPU time the hypervisor took from the machine during
        # each step is not a metric, but the first thing to look at when a
        # run is an outlier.
        json.dump({"result": result, "stamp": stamp,
                   "host_steal_pct": {"fit": fit["host_steal_pct"],
                                      "serve": serve["host_steal_pct"]},
                   "gen": gen, "failures": failures,
                   "fit": fit, "serve": serve, "all_measured": measured}, f, indent=1)
    for failure in failures:
        print("spebench: check failed: " + failure, file=sys.stderr)
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
