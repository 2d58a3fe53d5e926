#!/usr/bin/env python3
"""capart's benchmark: one command, three workloads, a traced per-layer run.

    python3 capbench/run.py [--workload figs-spooled|zoo-live|serve-mixed] \
        [--seed N] [--seconds S] [--trace 0|1]

Without --workload it runs all three in turn.

Run from the repository root. The first run configures and builds the
Release harness and capart_serve into .bench_build/ (later runs rebuild only
what changed). Human-readable lines go to stdout first; the last stdout line
is one JSON object with `correct`, `attempted`, `failed` and `metrics`
(end-to-end metrics with --trace 0, per-layer metrics with --trace 1). Any
correctness failure prints `"correct": false` and exits 1. See README.md in
this directory for what each workload and metric means.

`--record-digests` stores this run's per-arm result digests as the expected
ones for its workload and seed in digests.json instead of checking them.
"""
import argparse
import hashlib
import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
HARNESS = BUILD / "capbench_harness"
SERVE = BUILD / "capart" / "tools" / "capart_serve"
DIGESTS = HERE / "digests.json"
WORKLOADS = ("figs-spooled", "zoo-live", "serve-mixed")

# The serve-mixed load shape (rates, request counts, p99 limit, connections)
# lives in load.cpp; --seconds sets the heavy phase's length.
# Daemon spawns timed before the load, and again after it: the host's speed
# drifts over seconds, so the samples span the run.
SERVE_SETUP_REPS = 15
# Seconds the traced serve-mixed run spends on its simulator-layer pass.
SERVE_LAYER_SECONDS = 1
# Every run also re-checks this seed's committed digests (see golden_check).
GOLDEN_SEED = 42


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail_setup(msg):
    log("capbench: " + msg)
    sys.exit(2)


def build():
    """Configures (once) and builds the Release harness and capart_serve."""
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not (ROOT / needed).exists():
            fail_setup(f"{ROOT / needed} is missing; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail_setup("cmake configure failed")
    cache = (BUILD / "CMakeCache.txt").read_text()
    if "CMAKE_BUILD_TYPE:STRING=Release" not in cache:
        fail_setup(".bench_build is not a Release build; delete it")
    cmd = ["cmake", "--build", str(BUILD), "--target", "capbench_harness",
           "capart_serve", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail_setup("build failed")


def harness(*args, timeout=170):
    """Runs one harness subcommand and returns its JSON output."""
    proc = subprocess.run([str(HARNESS), *map(str, args)], capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        log(proc.stderr)
        raise RuntimeError(f"capbench_harness {args[0]} exited "
                           f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def commit_id():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    # Not a git checkout: fingerprint the sources instead.
    h = hashlib.sha256()
    for top in ("src", "tools"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return "tree-sha256:" + h.hexdigest()[:16]


def cpu_ticks():
    """(busy, steal) ticks of the whole machine, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    # user nice system idle iowait irq softirq steal ...
    busy = sum(fields[:3]) + sum(fields[5:7])
    return busy, (fields[7] if len(fields) > 7 else 0)


# --- capart_serve as a child process ------------------------------------


class Daemon:
    """One capart_serve child with default flags; setup_s is spawn -> first
    200 from /healthz."""

    def __init__(self):
        start = time.perf_counter()
        self.proc = subprocess.Popen([str(SERVE)], stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, text=True)
        try:
            self.wait_healthy(start)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def wait_healthy(self, start):
        line = self.proc.stdout.readline()
        if not line.startswith("listening on 127.0.0.1:"):
            raise RuntimeError(f"capart_serve did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])
        while True:
            try:
                if self.get("/healthz")[0] == 200:
                    return
            except OSError:
                pass
            if time.perf_counter() - start > 30:
                raise RuntimeError("capart_serve never became healthy")
            time.sleep(0.0005)

    def get(self, path):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read().decode()
        finally:
            conn.close()

    def metrics(self):
        """The /metrics rollup as {name: value text}."""
        out = {}
        for line in self.get("/metrics")[1].splitlines():
            parts = line.split(None, 1)
            if len(parts) == 2 and "/" in parts[0]:
                out[parts[0]] = parts[1].strip()
        return out

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()


class QueuePoller:
    """Samples the daemon's serve/queue_depth gauge while load runs."""

    def __init__(self, daemon):
        self.daemon, self.samples = daemon, []
        self.done = threading.Event()
        self.thread = threading.Thread(target=self.run)
        self.thread.start()

    def run(self):
        while not self.done.wait(0.02):
            try:
                self.samples.append(float(self.daemon.metrics().get(
                    "serve/queue_depth", "0")))
            except (OSError, ValueError):
                pass

    def stop(self):
        self.done.set()
        self.thread.join()


def histogram_field(text, field):
    for token in text.split():
        if token.startswith(field + "="):
            return float(token.split("=", 1)[1])
    return 0.0


def serve_layer_metrics(daemon, load, phase_name, poller):
    """serve.* and gen.* per-layer metrics of one load run, and a note line.

    serve/admission_rejects only goes to the note: at most min(4, nproc)
    requests are ever outstanding, below the daemon's 2 running + 16 queued
    slots, so it is 0 on every run that passes (a 429 fails the run). The
    queue depth is at most 2 for the same reason, so its mean over the
    samples is registered and its maximum is noted."""
    m = daemon.metrics()
    phase = next(p for p in load["phases"] if p["name"] == phase_name)
    # Of the POST /run submissions (the health and metrics GETs also count
    # in serve/requests_total).
    hits = float(m.get("serve/cache_hits", "0"))
    runs = hits + float(m.get("serve/cache_misses", "0")) + \
        float(m.get("serve/coalesced", "0"))
    hist = m.get("serve/request_seconds", "")
    return {
        # The registry keeps log2-bucket histograms: its p50 is a bucket
        # midpoint, so the exact mean is reported (p50 goes to the notes).
        "serve.server_mean_ms": 1e3 * histogram_field(hist, "mean"),
        "serve.cache_hit_ratio": hits / runs if runs else 0.0,
        "serve.queue_depth_mean": (statistics.fmean(poller.samples)
                                   if poller.samples else 0.0),
        "gen.lag_ms_p99": phase["lag_p99_ms"],
    }, (f"serve/request_seconds {hist}; serve/admission_rejects "
        f"{m.get('serve/admission_rejects', '0')}; serve/queue_depth max "
        f"{max(poller.samples, default=0.0):g} over {len(poller.samples)} "
        "samples")


# --- workloads ------------------------------------------------------------


def check_digests(workload, seed, digests, record):
    """Compares per-arm digests with the committed ones for this seed.
    Returns (mismatches, note)."""
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    if record:
        table.setdefault(workload, {})[str(seed)] = digests
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        return 0, f"recorded {len(digests)} digests for seed {seed}"
    expected = table.get(workload, {}).get(str(seed))
    if expected is None:
        return 0, (f"no committed digests for seed {seed}; its arms were "
                   "checked run to run")
    bad = [arm for arm in expected if digests.get(arm) != expected[arm]]
    bad += [arm for arm in digests if arm not in expected]
    for arm in bad:
        log(f"DIGEST MISMATCH {workload} seed {seed} arm {arm}: "
            f"{digests.get(arm)} != {expected.get(arm)}")
    return len(bad), f"{len(expected) - len(bad)}/{len(expected)} committed " \
                     f"digests match for seed {seed}"


def golden_check(args, workdir, lines):
    """Re-simulates the workload at GOLDEN_SEED and compares every arm with
    the committed digests, so a changed result fails the run whatever its
    --seed. Returns (attempted, failed)."""
    if args.record_digests:
        return 0, 0
    res = harness("digests", "--workload", args.workload, "--seed",
                  GOLDEN_SEED, "--workdir", workdir)
    bad, note = check_digests(args.workload, GOLDEN_SEED, res["digests"],
                              False)
    lines.append(f"golden check: {note}")
    return len(res["digests"]), bad


def sim_layers(res):
    """The traced sim run's layers plus the batch layer of its untraced
    passes."""
    layers = dict(res["layers"])
    layers["batch.arm_wall_p50_s"] = res["arm_wall_p50_s"]
    layers["batch.arm_wall_max_s"] = res["arm_wall_max_s"]
    layers["batch.serial_over_wall"] = res["serial_over_wall"]
    return layers


def run_sim(args, workdir, lines):
    res = harness("sim", "--workload", args.workload, "--seed", args.seed,
                  "--seconds", args.seconds, "--trace", args.trace,
                  "--workdir", workdir)
    for e in res["errors"]:
        log("ERROR " + e)
    bad, note = check_digests(args.workload, args.seed, res["digests"],
                              args.record_digests)
    attempted, failed = res["attempted"], res["failed"] + bad
    if res["cross_check_arm"]:
        note += (f"; live re-run of {res['cross_check_arm']} checked "
                 "against the spool")
    lines.append("correctness: " + note)
    e2e = {
        "throughput_per_s": res["shared_accesses_per_s"],
        "latency_p50_ms": 1e3 * res["arm_wall_p50_s"],
        "latency_tail_ms": 1e3 * res["slowest_arm_wall_s"],
        "cpu_s": res["cpu_s"],
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": res["setup_s"],
    }
    lines += [
        f"shared_accesses_per_s {res['shared_accesses_per_s']:.6g} 1/s  "
        f"(median of {res['passes']} passes, {res['jobs']} batch workers, "
        f"{res['accesses_per_pass']} accesses/pass)",
        f"cpu_s {res['cpu_s']:.6g} s  (per pass)",
        f"setup_s {res['setup_s']:.6g} s  (median of "
        f"{len(res['setup_samples_s'])})",
        f"peak_rss_mb {res['peak_rss_mb']:.6g} MB",
        f"arm wall p50 {1e3 * res['arm_wall_p50_s']:.6g} ms, slowest arm "
        f"{res['slowest_arm']} {1e3 * res['slowest_arm_wall_s']:.6g} ms",
    ]
    if "sim_gain_model_vs_shared_pct" in res:
        lines.append("sim_gain_model_vs_shared_pct "
                     f"{res['sim_gain_model_vs_shared_pct']:.6g} %  "
                     "(simulated; model unvalidated, caches start empty)")
    layers = {}
    if args.trace == 1:
        layers = sim_layers(res)
        lines += ["note: " + n for n in res["notes"]]
        # The serve layer on this workload's own configs.
        daemon = Daemon()
        poller = QueuePoller(daemon)
        try:
            load = harness("load", "--workload", args.workload, "--seed",
                           args.seed, "--port", daemon.port, "--pid",
                           daemon.proc.pid)
            poller.stop()
            serve_m, note = serve_layer_metrics(daemon, load, "layer", poller)
        finally:
            poller.stop()
            daemon.stop()
        layers.update(serve_m)
        lines.append("note: " + note)
        attempted += load["attempted"]
        failed += load["failed"]
        for e in load["errors"]:
            log("ERROR " + e)
    return attempted, failed, e2e, layers


def run_serve(args, workdir, lines):
    daemons, poller = [], None

    def spawn_several():
        for _ in range(SERVE_SETUP_REPS):
            if daemons:
                daemons[-1].stop()
            daemons.append(Daemon())

    try:
        # Set-up several times; the last daemon before the load serves it.
        spawn_several()
        daemon = daemons[-1]
        poller = QueuePoller(daemon) if args.trace == 1 else None
        load = harness("load", "--workload", "serve-mixed", "--seed",
                       args.seed, "--seconds", args.seconds, "--port",
                       daemon.port, "--pid", daemon.proc.pid)
        if poller:
            poller.stop()
        rss = daemon.peak_rss_mb()
        serve_m, note = (serve_layer_metrics(daemon, load, "heavy", poller)
                         if poller else ({}, ""))
        spawn_several()
        setup = statistics.median(d.setup_s for d in daemons)
    finally:
        if poller:
            poller.stop()
        for d in daemons:
            d.stop()
    for e in load["errors"]:
        log("ERROR " + e)
    ph = {p["name"]: p for p in load["phases"]}
    light, heavy = ph["light"], ph["heavy"]
    capacity = load["saturated_rps"]
    # Not the unmeasured cache warm-up, nor the closed-loop rounds.
    for p in load["phases"]:
        if p["name"] in ("warm", "saturate"):
            continue
        lines.append(
            f"phase {p['name']}: rate {p['rate']:g}/s, {p['ok']}/"
            f"{p['requests']} ok, p50 {p['p50_ms']:.4g} ms (cold "
            f"{p['p50_cold_ms']:.4g} ms), p99 "
            f"{p['p99_ms']:.4g} ms (n={p['requests']}), lag p99 "
            f"{p['lag_p99_ms']:.4g} ms, backlog growth "
            f"{p['backlog_growth']}, daemon cpu {p['daemon_cpu_s']:.3g} s, "
            f"{'meets' if p['passed'] else 'misses'} the limit")
    sat = [p for p in load["phases"] if p["name"] == "saturate"]
    lines.append(
        f"phase saturate: closed loop on {load['conns']} connections, "
        f"{len(sat)} rounds of {sat[0]['requests']}, "
        f"{sum(p['ok'] for p in sat)} ok, round rates " +
        " ".join(f"{p['ok'] / p['wall_s']:.4g}/s" for p in sat))
    lines += [
        f"p50_ms_light {light['p50_ms']:.6g} ms",
        f"p99_ms_light {light['p99_ms']:.6g} ms  (n={light['requests']})",
        f"p50_ms_heavy {heavy['p50_ms']:.6g} ms",
        f"p50_ms_heavy_cold {heavy['p50_cold_ms']:.6g} ms  (cache misses)",
        f"p99_ms_heavy {heavy['p99_ms']:.6g} ms  (n={heavy['requests']})",
        f"max_ok_rps {load['max_ok_rps']:g} 1/s  (p99 limit "
        f"{load['p99_limit_ms']:g} ms)",
        f"saturated_rps {capacity:.6g} 1/s  (closed loop, median of "
        f"{len(sat)} rounds)",
        f"setup_s {setup:.6g} s  (median of {len(daemons)} spawns)",
        f"peak_rss_mb {rss:.6g} MB  (daemon VmHWM)",
        f"correctness: {load['verified']} served results match in-process "
        "simulation; hot bodies byte-identical",
    ]
    cpu = light["daemon_cpu_s"] + heavy["daemon_cpu_s"]
    e2e = {
        # Capacity: served requests per wall second at saturation.
        "throughput_per_s": capacity,
        # Cache misses: a hit's p50 is mostly thread wake-ups, which swing
        # with the host's load far more than the daemon's own work does.
        "latency_p50_ms": heavy["p50_cold_ms"],
        "latency_tail_ms": heavy["p99_ms"],
        "cpu_s": cpu,
        "peak_rss_mb": rss,
        "setup_s": setup,
    }
    attempted, failed = load["attempted"], load["failed"]
    layers = {}
    if args.trace == 1:
        # The simulator layers, measured on the configs the requests carry.
        res = harness("sim", "--workload", "serve-mixed", "--seed", args.seed,
                      "--seconds", SERVE_LAYER_SECONDS, "--trace", 1,
                      "--workdir", workdir)
        for e in res["errors"]:
            log("ERROR " + e)
        bad, dnote = check_digests("serve-mixed", args.seed, res["digests"],
                                   args.record_digests)
        attempted += res["attempted"]
        failed += res["failed"] + bad
        layers = sim_layers(res)
        layers.update(serve_m)
        lines += ["note: " + n for n in res["notes"]]
        lines += ["note: " + note, "correctness: " + dnote]
    return attempted, failed, e2e, layers


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: all three in turn)")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()
    # A SIGTERM unwinds like an error, so every `finally` stops the daemons
    # and subprocess.run kills the harness it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    build()
    if args.workload is not None:
        return run_workload(args)
    status = 0
    for workload in WORKLOADS:
        status = max(status, run_workload(
            argparse.Namespace(**{**vars(args), "workload": workload})))
    return status


def run_workload(args):
    """One workload's run; prints its report and returns the exit status."""
    meta = harness("meta")
    if meta["build_type"] != "Release":
        fail_setup("harness is not a Release build")
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    lines = []
    busy0, steal0 = cpu_ticks()
    try:
        if args.workload == "serve-mixed":
            attempted, failed, e2e, layers = run_serve(args, workdir, lines)
        else:
            attempted, failed, e2e, layers = run_sim(args, workdir, lines)
        golden_attempted, golden_failed = golden_check(args, workdir, lines)
        attempted += golden_attempted
        failed += golden_failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    busy1, steal1 = cpu_ticks()
    # The share of the run's CPU time that the host gave to other guests: on
    # a shared virtual machine it moves wall-clock metrics far more than
    # cpu_s (see README.md, Noise).
    stolen = steal1 - steal0
    meta.update(commit=commit_id(), seed=args.seed, workload=args.workload,
                seconds=args.seconds, trace=args.trace,
                host_steal_frac=round(stolen / max(busy1 - busy0 + stolen, 1),
                                      4))
    if "obs.trace_overhead_frac" in layers:
        meta["obs.trace_overhead_frac"] = layers["obs.trace_overhead_frac"]
    print(f"== capbench {args.workload} seed {args.seed} ==")
    print("meta " + json.dumps(meta, sort_keys=True))
    for line in lines:
        print(line)
    print(f"fail_frac {failed / max(attempted, 1):.6g}  ({failed} failed of "
          f"{attempted} attempted)")
    # The registered metrics, by name and unit, from BENCHMARK.json.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace == 1 else spec["end_to_end"]
    values = layers if args.trace == 1 else e2e
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    if args.trace == 0:
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
