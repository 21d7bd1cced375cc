#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of the DESC reproduction.

    python3 perfbench/run.py --workload scheme-grid --seed 2013 --seconds 12 --trace 0

Builds the release `repro` and `serve` binaries from the checkout (and, for
`--trace 1`, the `perfbench/layers` harness), runs one workload as users
invoke the binaries, checks every output, and prints one line per metric
followed by a context stamp and, as the last line, one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json, with
program telemetry off. With `--trace 1` they are the per-layer ones, timed by
the benchmark's own code around calls into each layer (see README.md).

Workloads:
  scheme-grid  repro --jobs 2 fig16 fig20 at full scale (256 demands, 128 cells)
  ecc-grid     repro --jobs 2 fig28 at full scale (64 cells, SECDED encoders)
  serve-mixed  serve --workers 2 --jobs 2 under a sweep client and a probe client

Exit codes: 0 measured (the JSON says whether outputs were correct), 2 usage,
3 the build failed, 4 the benchmark could not drive the program.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_SEED = 2013
JOBS = 2
# Probes per kind, so that p90 has at least ten samples beyond it.
MIN_PROBES = 100
SETUP_SPAWNS = 21

# Cells each request demands: figures x schemes x apps.
GRIDS = {
    "scheme-grid": {"figures": ["fig16", "fig20"], "cells": 2 * 8 * 16},
    "ecc-grid": {"figures": ["fig28"], "cells": 4 * 16},
}
SWEEP = {"experiments": ["fig16", "fig20"], "preset": "quick", "cells": 2 * 8 * 4}
PROBE = {"experiments": ["fig30"], "preset": "tiny"}
WORKLOADS = list(GRIDS) + ["serve-mixed"]
# Children not yet waited for, killed on the way out if a run fails.
LIVE = []
# A sample during which the hypervisor took more than this share of the
# machine's CPU time is set aside: on a shared host such spells slow every
# process by tens of percent for tens of seconds, whatever the program does.
STEAL_LIMIT = 0.1
# Probe pairs made in every run, so that MIN_PROBES usually remain after
# the ones set aside.
PROBE_PAIRS = 130


class BenchError(Exception):
    """The benchmark could not drive the program at all."""


# --------------------------------------------------------------------------
# Helpers shared with selftest.py


def percentile(samples, q):
    """Nearest-rank percentile with its sample count.

    Returns {"value", "n", "beyond"}: `beyond` is how many samples lie above
    the reported rank, so a p90 is trustworthy only when `beyond` >= 10.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(1, min(n, math.ceil(round(q * n, 9))))
    return {"value": ordered[rank - 1], "n": n, "beyond": n - rank}


def sections(text):
    """Splits `repro` stdout into {experiment: table text}.

    A section runs from its `== title ==` line up to, not including, its
    `[name completed in Ns]` line, so timings never enter a comparison, and
    neither does the blank line that separates it from the one before.
    """
    out, current = {}, []
    for line in text.splitlines(keepends=True):
        if line.startswith("[") and " completed in " in line:
            out[line[1:].split(" completed in ")[0]] = "".join(current).strip("\n")
            current = []
        else:
            current.append(line)
    return out


class Tally:
    """Operations attempted and failed; every failure is also logged."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.lock = threading.Lock()

    def op(self, ok, what=""):
        with self.lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.notes.append(what)
        return ok

    def check_tables(self, got, want, what):
        """One comparison; a mismatch is a failed operation."""
        return self.op(got == want, f"table mismatch: {what}")

    def check_reply(self, reply, what):
        """A reply counts only when `status` is ok; `busy` is a failure."""
        code = reply.get("error", {}).get("code", "no ok reply")
        return self.op(reply.get("status") == "ok", f"{what}: {code}")

    @property
    def failed_ratio(self):
        return self.failed / max(1, self.attempted)


def end_to_end_metrics(m):
    """The end-to-end metrics from one run's measurements."""
    out = {k: m[k] for k in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s", "sweep_cells_per_s")}
    for kind in ("cold", "warm"):
        for q in (50, 90):
            out[f"probe_{kind}_p{q}_ms"] = percentile(m[f"probe_{kind}_ms"], q / 100)["value"]
    return out


def declared(kind):
    with open(ROOT / "BENCHMARK.json") as f:
        return {m["name"]: m for m in json.load(f)[kind]}


def steal_now():
    """CPU-seconds the hypervisor has taken from this machine so far (0
    where the kernel counts no steal time)."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


class Calm:
    """Times one sample; `ok` tells whether the host left it alone."""

    def __enter__(self):
        self.steal = steal_now()
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self.started
        self.ok = steal_now() - self.steal <= STEAL_LIMIT * self.wall * os.cpu_count()


def calm_or_all(samples, wanted=1):
    """The calm samples when there are at least `wanted`, else all of them."""
    calm = [x for x in samples if x["calm"]]
    return calm if len(calm) >= wanted else samples


# --------------------------------------------------------------------------
# Building and spawning


def target_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(trace):
    if not (ROOT / "Cargo.toml").is_file():
        raise BenchError("no Cargo workspace at the checkout root")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    steps = [["cargo", "build", "--release", "--offline", "-p", "desc-experiments", "-p", "desc-serve", "--bins"]]
    if trace:
        steps.append(["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/layers/Cargo.toml"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    bins = target_dir() / "release"
    return {"repro": bins / "repro", "serve": bins / "serve", "layers": bins / "desc-perfbench-layers"}


def pinned(cpus):
    """A `preexec_fn` that confines the child to `cpus` (None: no change)."""
    return None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))


def cpu_split():
    """One core for the serial run and another for the probes beside it, so
    that neither slows the other; on one core they share it."""
    cpus = sorted(os.sched_getaffinity(0))
    return {cpus[0]}, {cpus[-1]}


def spawn_measured(cmd, stdout_path, cpus=None):
    """Runs `cmd` to completion; returns (exit code, wall s, cpu s, peak RSS MB)."""
    with open(stdout_path, "wb") as out:
        started = time.perf_counter()
        proc = subprocess.Popen([str(c) for c in cmd], stdout=out, stderr=subprocess.DEVNULL, preexec_fn=pinned(cpus))
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def run_quiet(cmd, stdout_path):
    code, *_ = spawn_measured(cmd, stdout_path)
    return code, Path(stdout_path).read_text()


# --------------------------------------------------------------------------
# repro workloads


def golden_sections(figures):
    text = (ROOT / "repro_full.txt").read_text()
    return {f: sections(text).get(f) for f in figures}


def serial_run(bins, work, figures, scale_flags, seed, cpus=None):
    """Starts the untimed serial (`--jobs 1 --shards 1`) run of `figures`."""
    cmd = [bins["repro"], *scale_flags, "--jobs", "1", "--shards", "1", "--seed", seed, *figures]
    out = open(work / "serial.txt", "wb")
    proc = subprocess.Popen([str(c) for c in cmd], stdout=out, stderr=subprocess.DEVNULL, preexec_fn=pinned(cpus))
    LIVE.append(proc)
    return proc, out


def serial_sections(handle, figures, tally):
    proc, out = handle
    proc.wait()
    LIVE.remove(proc)
    out.close()
    if not tally.op(proc.returncode == 0, f"serial run exited {proc.returncode}"):
        raise BenchError("serial run failed")
    got = sections(Path(out.name).read_text())
    return {f: got.get(f) for f in figures}


def reference_sections(bins, work, figures, scale_flags, seed, tally):
    """The tables to compare against: the committed `repro_full.txt` at the
    golden seed and full scale, otherwise an untimed serial run."""
    if seed == GOLDEN_SEED and not scale_flags:
        return golden_sections(figures)
    return serial_sections(serial_run(bins, work, figures, scale_flags, seed), figures, tally)


def warm_up(bins, work, figures, seed, tally):
    """An untimed quick-scale sweep, so that timing starts on a host that is
    already busy: the first sweep after an idle spell runs 5-20% slower."""
    cmd = [bins["repro"], "--quick", "--jobs", JOBS, "--seed", seed, *figures]
    code, _ = run_quiet(cmd, work / "warm-up.txt")
    tally.op(code == 0, f"warm-up exited {code}")


def flush_disk():
    """Writes out dirty data left by earlier work (a previous run's clean-up
    among it), so the set-up spawns' own fsyncs do not pay for it."""
    os.sync()


def repro_setup(bins, work, tally):
    """Median spawn-to-exit time of a zero-cell `repro table1`."""
    flush_disk()
    times = []
    for _ in range(SETUP_SPAWNS):
        with Calm() as calm:
            code, wall, *_ = spawn_measured([bins["repro"], "table1"], work / "setup.txt")
        if tally.op(code == 0 and "== Table 1" in (work / "setup.txt").read_text(), "repro table1"):
            times.append({"wall": wall, "calm": calm.ok})
    if not times:
        raise BenchError("repro table1 never succeeded")
    return statistics.median(t["wall"] for t in calm_or_all(times))


def sweep_iterations(cmd, seconds, work):
    """Runs `cmd` repeatedly, stopping at the count whose total lands nearest
    to `seconds` (at least one); returns per-iteration samples."""
    runs, elapsed = [], 0.0
    while True:
        path = work / f"iteration{len(runs)}.txt"
        with Calm() as calm:
            code, wall, cpu, rss = spawn_measured(cmd, path)
        runs.append({"code": code, "wall": wall, "cpu": cpu, "rss": rss, "calm": calm.ok, "out": path.read_text()})
        elapsed += wall
        if elapsed + statistics.median(r["wall"] for r in runs) / 2 >= seconds:
            return runs


def cli_probes(bins, work, seed, cpus, tally):
    """`repro --tiny fig30` asked cold (new seed, empty cell store) and then
    warm (same seed, disk hits), alternately, on `cpus`: the command-line
    counterpart of serve-mixed's probes. Makes PROBE_PAIRS pairs."""
    pairs = []
    cache_dir = work / "probe-cells"
    for k in range(PROBE_PAIRS):
        probe_seed = (seed + 1 + k) % 2**64
        cmd = [bins["repro"], "--tiny", "--jobs", JOBS, "--seed", probe_seed, "--cache-dir", cache_dir, *PROBE["experiments"]]
        with Calm() as calm:
            c_code, c_wall, *_ = spawn_measured(cmd, work / "probe-cold.txt", cpus)
            w_code, w_wall, *_ = spawn_measured(cmd, work / "probe-warm.txt", cpus)
        if tally.op(c_code == 0 and w_code == 0, f"probe exited {c_code}/{w_code}"):
            a = sections((work / "probe-cold.txt").read_text())
            b = sections((work / "probe-warm.txt").read_text())
            if tally.check_tables(b, a, f"warm probe seed {probe_seed}"):
                pairs.append({"cold": c_wall * 1e3, "warm": w_wall * 1e3, "calm": calm.ok})
    return pairs


def report_stats(path):
    """Program-reported worker busy fraction (max) and dropped spans."""
    with open(path) as f:
        report = json.load(f)
    workers = report.get("pool_utilization", {}).get("workers", [])
    busy = max((w.get("busy_fraction", 0.0) for w in workers), default=0.0)
    return busy, report.get("meta", {}).get("spans_dropped", 0)


def run_grid(name, args, bins, work, tally, out):
    grid = GRIDS[name]
    figures = grid["figures"]
    cmd = [bins["repro"], "--jobs", JOBS, "--seed", args.seed, *figures]
    if args.trace:
        code, wall, *_ = spawn_measured([*cmd, "--report", work / "report.json"], work / "traced.txt")
        outputs = [(code, (work / "traced.txt").read_text())]
        layers = run_layers(bins, name, args.seed, work, tally)
        busy_reported, dropped = report_stats(work / "report.json")
        layers["exec.busy_fraction_reported"] = busy_reported
        layers["telemetry.spans_dropped"] = float(dropped)
        layers["telemetry.overhead_ratio"] = wall / layers["experiments.run_s"]
        want = reference_sections(bins, work, figures, [], args.seed, tally)
    else:
        setup = repro_setup(bins, work, tally)
        warm_up(bins, work, figures, args.seed, tally)
        runs = sweep_iterations(cmd, args.seconds, work)
        outputs = [(r["code"], r["out"]) for r in runs]
        # The serial run is made at every seed (at the golden seed it is
        # checked too), so the probes always run beside the same load.
        serial_cpus, probe_cpus = cpu_split()
        serial = serial_run(bins, work, figures, [], args.seed, serial_cpus)
        pairs = cli_probes(bins, work, args.seed, probe_cpus, tally)
        want = serial_sections(serial, figures, tally)
        if args.seed == GOLDEN_SEED:
            outputs.append((0, Path(serial[1].name).read_text()))
            want = golden_sections(figures)
    for i, (code, text) in enumerate(outputs):
        if tally.op(code == 0, f"repro exited {code}"):
            got = sections(text)
            for f in figures:
                tally.check_tables(got.get(f), want[f], f"{f} run {i} seed {args.seed}")
    if args.trace:
        out["layers"] = layers
        return
    ok = calm_or_all([r for r in runs if r["code"] == 0])
    probes = calm_or_all(pairs, MIN_PROBES)
    if not ok or not probes:
        raise BenchError("no successful iteration or probe to measure")
    out["iterations"] = "%d of %d sweeps (walls %s s), %d of %d probe pairs; the rest set aside for host steal" % (
        len(ok), len(runs), " ".join("%.2f" % r["wall"] for r in runs), len(probes), len(pairs))
    out["measured"] = {
        "wall_s": statistics.median(r["wall"] for r in ok),
        "cpu_s": statistics.median(r["cpu"] for r in ok),
        "peak_rss_mb": statistics.median(r["rss"] for r in ok),
        "setup_s": setup,
        "sweep_cells_per_s": statistics.median(grid["cells"] / r["wall"] for r in ok),
        "probe_cold_ms": [p["cold"] for p in probes],
        "probe_warm_ms": [p["warm"] for p in probes],
    }


def run_layers(bins, name, seed, work, tally):
    cmd = [bins["layers"], "run", "--workload", name, "--seed", seed]
    code, text = run_quiet(cmd, work / "layers.json")
    if not tally.op(code == 0, f"layers harness exited {code}"):
        raise BenchError("layers harness failed")
    doc = json.loads(text.strip().splitlines()[-1])
    for k, v in doc["details"].items():
        print(f"  detail {k} = {v:.6g}")
    return doc["metrics"]


# --------------------------------------------------------------------------
# serve workload


class Conn:
    """One framed `desc-run-request/v1` connection (docs/SERVICE.md)."""

    def __init__(self, addr):
        self.sock = socket.create_connection(addr, timeout=120)

    def request(self, doc):
        payload = json.dumps(doc).encode()
        self.sock.sendall(struct.pack(">I", len(payload)) + payload)
        (n,) = struct.unpack(">I", self._read(4))
        return json.loads(self._read(n))

    def _read(self, n):
        buf = b""
        while len(buf) < n:
            chunk = self.sock.recv(n - len(buf))
            if not chunk:
                raise BenchError("server closed the connection")
            buf += chunk
        return buf

    def close(self):
        self.sock.close()


def run_request(experiments, preset, seed, client):
    return {
        "schema": "desc-run-request/v1",
        "op": "run",
        "client": client,
        "experiments": experiments,
        "scale": {"preset": preset, "seed": seed},
        "tables": "text",
    }


PING = {"schema": "desc-run-request/v1", "op": "ping"}
SHUTDOWN = {"schema": "desc-run-request/v1", "op": "shutdown"}


class Server:
    """A `serve` child: spawn until the first `ping` reply is its set-up."""

    def __init__(self, bins, cache_dir, report=None):
        cmd = [bins["serve"], "--workers", JOBS, "--jobs", JOBS, "--cache-dir", cache_dir]
        if report:
            cmd += ["--report", report]
        started = time.perf_counter()
        self.proc = subprocess.Popen([str(c) for c in cmd], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        LIVE.append(self.proc)
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.proc.kill()
            self.proc.wait()
            raise BenchError(f"serve did not start: {line!r}")
        host, port = line.strip().rsplit(" ", 1)[1].rsplit(":", 1)
        self.addr = (host, int(port))
        conn = Conn(self.addr)
        self.first_ping = conn.request(PING)
        self.setup_s = time.perf_counter() - started
        conn.close()
        self.started = started

    def stop(self):
        """Shuts down through the protocol; returns (wall s, cpu s, peak RSS MB)."""
        conn = Conn(self.addr)
        conn.request(SHUTDOWN)
        conn.close()
        self.proc.stdout.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        LIVE.remove(self.proc)
        wall = time.perf_counter() - self.started
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def serve_load(server, seed, seconds, tally):
    """Two closed-loop clients on their own connections.

    `sweep` sends quick fig16+fig20 requests, a new seed each. `probe` sends
    tiny fig30 probes alternating a new seed (cold) and the same seed again
    (warm, whose tables must equal the cold reply's). Runs until `seconds`
    have passed and PROBE_PAIRS probe pairs were made. Returns
    {"sweeps": [...], "pairs": [...], "first": ...}.
    """
    done = threading.Event()
    res = {"sweeps": [], "pairs": [], "first": {}}

    def sweep():
        conn = Conn(server.addr)
        k = 0
        while not done.is_set():
            sweep_seed = (seed + 100_000 + k) % 2**64
            with Calm() as calm:
                reply = conn.request(run_request(SWEEP["experiments"], SWEEP["preset"], sweep_seed, "sweep"))
            if tally.check_reply(reply, "sweep"):
                res["sweeps"].append({"wall": calm.wall, "calm": calm.ok})
                res["first"].setdefault("sweep", (sweep_seed, reply.get("tables", {})))
            k += 1
        conn.close()

    def probe():
        conn = Conn(server.addr)
        started = time.perf_counter()
        pairs = res["pairs"]
        k = 0
        while k < PROBE_PAIRS or time.perf_counter() - started < seconds:
            probe_seed = (seed + 1 + k) % 2**64
            req = run_request(PROBE["experiments"], PROBE["preset"], probe_seed, "probe")
            with Calm() as calm:
                t0 = time.perf_counter()
                cold = conn.request(req)
                t1 = time.perf_counter()
                warm = conn.request(req)
                t2 = time.perf_counter()
            if tally.check_reply(cold, "cold probe") and tally.check_reply(warm, "warm probe"):
                if tally.check_tables(warm.get("tables"), cold.get("tables"), f"warm probe seed {probe_seed}"):
                    pairs.append({
                        "cold": (t1 - t0) * 1e3,
                        "warm": (t2 - t1) * 1e3,
                        "overhead": (t2 - t1) * 1e3 - warm.get("elapsed_ms", 0),
                        "calm": calm.ok,
                    })
                    res["first"].setdefault("probe", (probe_seed, cold.get("tables", {})))
            k += 1
        done.set()
        conn.close()

    errors = []

    def guarded(fn):
        try:
            fn()
        except Exception as e:  # noqa: BLE001 - reported below as a failure
            errors.append(e)
            done.set()

    threads = [threading.Thread(target=guarded, args=(fn,)) for fn in (sweep, probe)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise BenchError(f"load client failed: {errors[0]}")
    return res


def seconds_per_cell(sweeps):
    return sum(x["wall"] for x in sweeps) / (SWEEP["cells"] * len(sweeps))


def check_serve_against_repro(bins, work, res, tally):
    """The first sweep reply and first cold probe must equal `repro`'s
    serial output for the same scale and seed."""
    for key, spec in (("sweep", SWEEP), ("probe", PROBE)):
        if key not in res["first"]:
            tally.op(False, f"no successful {key} reply to check")
            continue
        seed, tables = res["first"][key]
        want = reference_sections(bins, work, spec["experiments"], ["--" + spec["preset"]], seed, tally)
        for f in spec["experiments"]:
            got = tables.get(f, "").strip("\n")
            tally.check_tables(got, want[f], f"serve {key} {f} vs repro, seed {seed}")


def final_stanzas(server):
    conn = Conn(server.addr)
    reply = conn.request(PING)
    conn.close()
    return reply.get("serve", {}), reply.get("cache", {})


def run_serve(args, bins, work, tally, out):
    if args.trace:
        return run_serve_traced(args, bins, work, tally, out)
    flush_disk()
    setups = []
    for i in range(SETUP_SPAWNS - 1):
        with Calm() as calm:
            s = Server(bins, work / f"setup-cells{i}")
        tally.check_reply(s.first_ping, "setup ping")
        setups.append({"wall": s.setup_s, "calm": calm.ok})
        s.stop()
    warm_up(bins, work, SWEEP["experiments"], args.seed, tally)
    with Calm() as calm:
        server = Server(bins, work / "cells")
    tally.check_reply(server.first_ping, "setup ping")
    setups.append({"wall": server.setup_s, "calm": calm.ok})
    res = serve_load(server, args.seed, args.seconds, tally)
    _, cpu, rss = server.stop()
    tally.op(server.proc.returncode == 0, f"serve exited {server.proc.returncode}")
    check_serve_against_repro(bins, work, res, tally)
    sweeps, probes = calm_or_all(res["sweeps"]), calm_or_all(res["pairs"], MIN_PROBES)
    if not sweeps or not probes:
        raise BenchError("no successful probe or sweep to measure")
    out["iterations"] = "%d of %d sweep requests, %d of %d probe pairs; the rest set aside for host steal" % (
        len(sweeps), len(res["sweeps"]), len(probes), len(res["pairs"]))
    out["measured"] = {
        "wall_s": statistics.median(x["wall"] for x in sweeps),
        "cpu_s": cpu,
        "peak_rss_mb": rss,
        "setup_s": statistics.median(t["wall"] for t in calm_or_all(setups)),
        "sweep_cells_per_s": seconds_per_cell(sweeps) ** -1,
        "probe_cold_ms": [p["cold"] for p in probes],
        "probe_warm_ms": [p["warm"] for p in probes],
    }


def run_serve_traced(args, bins, work, tally, out):
    """The load once as in the untraced run, then again with `--report` and
    an idle-connection ping client; then the layers harness."""
    warm_up(bins, work, SWEEP["experiments"], args.seed, tally)
    server = Server(bins, work / "cells-untraced")
    base = serve_load(server, args.seed, args.seconds, tally)
    server.stop()
    server = Server(bins, work / "cells-traced", report=work / "serve-report.json")
    pinger = subprocess.Popen(
        [str(c) for c in (bins["layers"], "ping", "--addr", "%s:%d" % server.addr, "--count", 41)],
        stdout=subprocess.PIPE,
        text=True,
    )
    LIVE.append(pinger)
    res = serve_load(server, args.seed, args.seconds, tally)
    ping_out, _ = pinger.communicate()
    LIVE.remove(pinger)
    tally.op(pinger.returncode == 0, f"ping client exited {pinger.returncode}")
    serve_stanza, cache = final_stanzas(server)
    server.stop()
    tally.op(server.proc.returncode == 0, f"serve exited {server.proc.returncode}")
    check_serve_against_repro(bins, work, res, tally)
    layers = run_layers(bins, "serve-mixed", args.seed, work, tally)
    pings = json.loads(ping_out.strip().splitlines()[-1]) if pinger.returncode == 0 else {"rtts_ms": [0.0], "first_ms": 0.0}
    print(f"  detail serve.first_ping_ms = {pings['first_ms']:.6g}")
    layers["serve.ping_rtt_ms"] = statistics.median(pings["rtts_ms"])
    layers["serve.overhead_ms"] = statistics.median(p["overhead"] for p in calm_or_all(res["pairs"], MIN_PROBES))
    layers["serve.rejected_busy"] = float(serve_stanza.get("rejected_busy", 0))
    layers["serve.dedup_cells"] = float(serve_stanza.get("dedup_cells", 0))
    hits = cache.get("hits_memory", 0) + cache.get("hits_disk", 0)
    layers["cache.repeat_share"] = hits / max(1, hits + cache.get("misses", 0))
    for k in ("hits_memory", "inflight_waits", "evictions"):
        layers[f"cache.{k}"] = float(cache.get(k, 0))
    busy_reported, dropped = report_stats(work / "serve-report.json")
    layers["exec.busy_fraction_reported"] = busy_reported
    layers["telemetry.spans_dropped"] = float(dropped)
    layers["telemetry.overhead_ratio"] = seconds_per_cell(calm_or_all(res["sweeps"])) / seconds_per_cell(
        calm_or_all(base["sweeps"]))
    out["layers"] = layers


# --------------------------------------------------------------------------
# Context, findings and output


def context(args, started):
    """The run's stamp; `started` is (perf_counter, steal_now()) at its start."""
    digest = hashlib.sha256()
    for path in sorted(ROOT.glob("crates/*/src/**/*.rs")) + [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]:
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    except OSError:
        rev = ""
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "tracing": bool(args.trace),
        "nproc": len(os.sched_getaffinity(0)),
        "profile": "release",
        "git_rev": rev or "unknown",
        "source_sha256": digest.hexdigest()[:16],
        "jobs": JOBS,
        "workers": JOBS if args.workload == "serve-mixed" else 0,
        "comparable_with": f"{args.workload}/trace={args.trace}/nproc={len(os.sched_getaffinity(0))}/release",
        "host_steal_share": round((steal_now() - started[1]) / ((time.perf_counter() - started[0]) * os.cpu_count()), 4),
    }


def findings(layers):
    """Cross-checks the benchmark flags without fixing the program."""
    notes = []
    if layers["exec.busy_fraction_reported"] > 1.0:
        notes.append(
            "discrepancy: program-reported worker busy_fraction %.3f > 1 (measured outside: %.3f)"
            % (layers["exec.busy_fraction_reported"], layers["exec.busy_fraction"])
        )
    if layers["exec.busy_fraction"] > 1.0:
        notes.append("discrepancy: outside busy_fraction %.3f > 1" % layers["exec.busy_fraction"])
    if layers["telemetry.spans_dropped"] > 0:
        notes.append("discrepancy: program telemetry dropped %d spans" % layers["telemetry.spans_dropped"])
    if layers["serve.ping_rtt_ms"] > 20.0:
        notes.append(
            "finding: idle-connection ping RTT %.1f ms, warm-probe overhead %.1f ms beyond elapsed_ms "
            "(two-write frames without TCP_NODELAY: Nagle + delayed ACK)"
            % (layers["serve.ping_rtt_ms"], layers["serve.overhead_ms"])
        )
    return notes


def emit(args, tally, out, started):
    kind = "per_layer" if args.trace else "end_to_end"
    want = declared(kind)
    values = out["layers"] if args.trace else end_to_end_metrics(out["measured"])
    missing = sorted(set(want) - set(values))
    if missing:
        raise BenchError("metrics not measured: " + ", ".join(missing))
    values = {k: values[k] for k in want}
    if args.trace:
        for note in findings(values):
            print(note)
    else:
        for name in ("cold", "warm"):
            for q in (0.5, 0.9):
                p = percentile(out["measured"][f"probe_{name}_ms"], q)
                print(f"  probe_{name}_p{int(q * 100)}_ms: n={p['n']} beyond={p['beyond']}")
        print(f"  iterations: {out['iterations']}")
    for name in sorted(values):
        print(f"{name} = {values[name]:.6g} {want[name]['unit']}")
    print(f"failed_ratio = {tally.failed_ratio:.6g} ({tally.failed}/{tally.attempted})")
    for note in tally.notes[:20]:
        print(f"  failure: {note}")
    print("context " + json.dumps(context(args, started), sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": want[k]["unit"]} for k, v in sorted(values.items())},
    }
    print(json.dumps(result))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=GOLDEN_SEED)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    try:
        if args.seconds is None:
            with open(ROOT / "BENCHMARK.json") as f:
                args.seconds = json.load(f)["run_seconds"]
        bins = build(args.trace)
    except (BenchError, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 3
    work = ROOT / ".perfbench_work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    tally, out = Tally(), {}
    started = (time.perf_counter(), steal_now())
    try:
        if args.workload in GRIDS:
            run_grid(args.workload, args, bins, work, tally, out)
        else:
            run_serve(args, bins, work, tally, out)
        emit(args, tally, out, started)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 4
    finally:
        for proc in LIVE:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
