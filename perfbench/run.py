#!/usr/bin/env python3
"""Pipeline + serving benchmark of prefcover.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload pipeline_yc --seed 1 --seconds 8 --trace 0

Builds the `prefcover` CLI and the benchmark's helper (`perfbench_tool`)
from source into `.bench_build/`, generates the workload's inputs from the
seed, drives the CLI verbs as subprocesses on those files, checks every
output against the library, and prints one JSON object as the last line
of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics; `--trace 1` runs the traced
in-process replay instead and reports the per-layer metrics. Both lists,
their units and the workloads are in BENCHMARK.json at the checkout root;
perfbench/NOTES.md says what each measures and why.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
OUT_DIR = os.path.join(ROOT, ".bench_out")
CLI = os.path.join(BUILD_DIR, "prefcover", "tools", "prefcover")
TOOL = os.path.join(BUILD_DIR, "perfbench_tool")
TRACE_VALIDATE = os.path.join(BUILD_DIR, "prefcover", "tools", "trace_validate")

# Workload definitions. `input` is "yc" (a YC-profile clickstream CSV that
# `construct` ingests) or "l" (the 1M-node L scale-tier graph, written by
# the synth layer during set-up). `k` is the solve budget of the served
# index; `alt_k` the budget of the second index that `reload` alternates to.
WORKLOADS = {
    "pipeline_yc": {"input": "yc", "k": 500, "alt_k": 250, "zipf_s": 1.0},
    "serve_cold": {"input": "l", "k": 10000, "alt_k": 5000, "zipf_s": 0.0},
}
YC_SCALE = 0.1
SETUP_REPEATS = 3
# Passes of the chain before and after the serving traffic.
CHAIN_REPEATS_BEFORE = 3
CHAIN_REPEATS_AFTER = 2
# The time metrics are CPU seconds scaled to the host's speed during the
# run: CPU time times CALIBRATION_REF_S over the median CPU time of the
# reference kernel (`perfbench_tool calibrate`, src/calibrate.h), which is
# timed before every measured pass and once at the end. They read as CPU
# seconds on a host that runs the kernel in CALIBRATION_REF_S, a fixed
# scale (perfbench/NOTES.md, "Host speed and the reference kernel").
CALIBRATION_REF_S = 0.15
# The serving traffic's nominal rate, warm-up, max-rate search and idle
# reloads are fixed in the load generator (src/loadgen.h); run.py scales
# the window and step lengths with --seconds and sets how many nominal
# windows each kind of run has.
SUBPROCESS_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s", "pipeline_cpu_s": "s", "solve_rss_mb": "MB",
    "serve_max_qps": "1/s", "serve_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "clickstream.parse_s": "s", "clickstream.parse_mb_s": "MB/s",
    "clickstream.variant_select_s": "s", "clickstream.build_graph_s": "s",
    "clickstream.streaming_build_s": "s", "clickstream.release_s": "s",
    "graph.load_s": "s", "graph.load_mb_s": "MB/s", "graph.write_s": "s",
    "graph.pcg_mb": "MB",
    "core.solve_s": "s", "core.gain_evaluations": "count",
    "core.heap_pops": "count", "core.stale_refreshes": "count",
    "core.seed_refills": "count", "core.evals_per_pick": "ratio",
    "serve.index_build_s": "s", "serve.index_save_s": "s",
    "serve.index_load_s": "s", "serve.index_mb": "MB",
    "serve.answer_ns": "ns", "serve.engine_rtt_us": "us",
    "serve.tcp_rtt_us": "us", "serve.batch_mean": "count",
    "serve.cache_hit_ratio": "ratio", "serve.shed": "count",
    "serve.deadline_expired": "count", "loadgen.late_p99_us": "us",
    "trace.overhead_ratio": "ratio", "pipeline.unaccounted_s": "s",
    "pipeline_s": "s", "construct_s": "s", "construct_rss_mb": "MB",
    "solve_s": "s", "serve_ready_s": "s", "reload_s": "s",
    "reload_cpu_s": "s", "serve_p50_us": "us", "serve_p99_us": "us", "fail_share": "ratio",
}
# The calls each verb makes, in the replay's metric names: their sum is the
# part of the CLI pipeline that the layers account for.
LAYER_CALLS = [
    "clickstream.parse_s", "clickstream.variant_select_s",
    "clickstream.build_graph_s", "graph.write_s", "clickstream.release_s",
    "graph.load_s", "graph.variant_resolve_s", "core.solve_s",
    "serve.index_build_s", "serve.index_save_s", "serve.index_load_s",
    "serve.first_answer_s",
]


class BenchError(Exception):
    """A failure that leaves the run without a result."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_checked(args, timeout=SUBPROCESS_TIMEOUT_S):
    """Runs a helper to completion; returns its stdout or raises."""
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=timeout, text=True)
    if proc.returncode != 0:
        raise BenchError("%s failed (%d): %s" % (
            " ".join(os.path.basename(a) for a in args[:2]), proc.returncode,
            proc.stderr.strip()[-500:]))
    return proc.stdout


def children_cpu_s():
    """CPU time of this process's waited-for children so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def process_cpu_s(pid):
    """CPU time the threads of a running process have had so far."""
    total_ns = 0
    task_dir = "/proc/%d/task" % pid
    for tid in os.listdir(task_dir):
        try:
            with open(os.path.join(task_dir, tid, "schedstat")) as f:
                total_ns += int(f.read().split()[0])
        except OSError:
            pass  # the thread exited
    return total_ns * 1e-9


def child_pid(parent):
    """The process id of `parent`'s only child."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as f:
                stat = f.read()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == parent:
            return int(entry)
    raise BenchError("no child of process %d" % parent)


def spawn(args, result_path, **popen_args):
    """Starts `args` under `perfbench_tool spawn`, which records the
    command's time, CPU time, exit code and peak RSS in `result_path` when
    it exits.
    A child forked from this Python process would report at least this
    process's peak RSS instead of its own."""
    if os.path.exists(result_path):
        os.remove(result_path)
    return subprocess.Popen([TOOL, "spawn", result_path] + args, **popen_args)


def command_name(proc):
    """"prefcover <verb>" of a spawned CLI verb."""
    return " ".join(os.path.basename(a) for a in proc.args[3:5])


def wait_spawned(proc, result_path, timeout):
    """Waits for a spawned command (killing it after `timeout` s); returns
    the result `perfbench_tool spawn` recorded."""
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        proc.wait()
    finally:
        killer.cancel()
    if proc.returncode == -signal.SIGKILL:
        raise BenchError("%s did not exit in time" % command_name(proc))
    try:
        with open(result_path) as f:
            return json.load(f)
    except OSError:
        raise BenchError("%s left no result (%d)" % (command_name(proc),
                                                     proc.returncode))


def timed_verb(args):
    """Runs one CLI verb; returns (seconds, CPU seconds, peak RSS MB,
    stdout)."""
    out_path = os.path.join(OUT_DIR, "verb.out")
    err_path = os.path.join(OUT_DIR, "verb.err")
    result_path = os.path.join(OUT_DIR, "verb.result")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = spawn(args, result_path, stdout=out, stderr=err)
        result = wait_spawned(proc, result_path, SUBPROCESS_TIMEOUT_S)
    if result["exit_code"] != 0:
        with open(err_path) as err:
            raise BenchError("prefcover %s failed (%d): %s" % (
                args[1], result["exit_code"], err.read().strip()[-500:]))
    with open(out_path) as out:
        return (result["seconds"], result["cpu_s"], result["rss_mb"],
                out.read())


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Server:
    """A `prefcover serve --port` child process."""

    def __init__(self, index):
        self.port = free_port()
        self.log = open(os.path.join(OUT_DIR, "serve.log"), "a")
        self.result_path = os.path.join(OUT_DIR, "serve.result")
        self.start = time.perf_counter()
        self.proc = spawn(
            [CLI, "serve", "--index=" + index, "--port=%d" % self.port],
            self.result_path, stdout=subprocess.DEVNULL, stderr=self.log)

    def connect(self, timeout=60.0):
        deadline = time.monotonic() + timeout
        while True:
            try:
                return socket.create_connection(("127.0.0.1", self.port),
                                                timeout=30)
            except OSError:
                if self.proc.poll() is not None:
                    raise BenchError("serve exited before listening")
                if time.monotonic() > deadline:
                    raise BenchError("serve did not listen in time")
                time.sleep(0.0002)

    def pid(self):
        """The server's own process id (the child of the spawner); valid
        once it listens."""
        return child_pid(self.proc.pid)

    def first_answer(self, query):
        """Seconds from process start to the answer of `query`, and the
        server's CPU seconds up to then."""
        with self.connect() as conn:
            answer = exchange(conn, query)
            seconds = time.perf_counter() - self.start
            cpu_s = process_cpu_s(self.pid())
        return seconds, cpu_s, answer

    def stop(self):
        """Shuts the server down; returns its peak RSS in MB."""
        try:
            with self.connect(timeout=5) as conn:
                exchange(conn, "shutdown")
        except (OSError, BenchError):
            self.proc.kill()
        try:
            result = wait_spawned(self.proc, self.result_path, 30)
        finally:
            self.log.close()
        if result["exit_code"] != 0:
            raise BenchError("serve exited with %d" % result["exit_code"])
        return result["rss_mb"]


def exchange(conn, line):
    conn.sendall((line + "\n").encode())
    data = b""
    while not data.endswith(b"\n"):
        chunk = conn.recv(65536)
        if not chunk:
            raise BenchError("server closed the connection")
        data += chunk
    return data.decode().rstrip("\n")


def build():
    """Configures and builds the CLI and the helper (incremental)."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no prefcover sources at %s" % ROOT)
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_DIR, "build.log")
    with open(build_log, "a") as out:
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if subprocess.run(cmd, stdout=out, stderr=out).returncode != 0:
                raise BenchError("cmake configure failed; see " + build_log)
        cmd = ["cmake", "--build", BUILD_DIR, "-j4", "--target",
               "prefcover_cli", "perfbench_tool", "trace_validate"]
        if subprocess.run(cmd, stdout=out, stderr=out).returncode != 0:
            raise BenchError("build failed; see " + build_log)


class Run:
    def __init__(self, name, seed, seconds, trace):
        self.name = name
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = os.path.join(OUT_DIR, "%s-%d" % (name, seed))
        os.makedirs(self.work, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.record = {"workload": name, "seed": seed, "trace": trace,
                       "calibration_s": []}

    def path(self, name):
        return os.path.join(self.work, name)

    def clean_up(self):
        """Keeps the trace, drops the generated inputs and artifacts."""
        trace = self.path("replay.trace.json")
        if os.path.exists(trace):
            os.replace(trace, os.path.join(OUT_DIR, "%s-%d.trace.json" % (
                self.name, self.seed)))
        shutil.rmtree(self.work, ignore_errors=True)

    def calibrate(self):
        """Times the reference kernel; returns its CPU seconds."""
        # Writes back the files the step before left dirty, so that their
        # writeback does not compete with the kernel.
        os.sync()
        cpu_s = json.loads(run_checked([TOOL, "calibrate"]))["cpu_s"]
        self.record["calibration_s"].append(cpu_s)
        return cpu_s

    def scale(self):
        """The factor that turns this run's CPU seconds into CPU seconds on
        a host where the reference kernel takes CALIBRATION_REF_S."""
        self.calibrate()
        return CALIBRATION_REF_S / statistics.median(
            self.record["calibration_s"])

    def check(self, what, args):
        """An output check: a mismatch marks the run incorrect."""
        try:
            run_checked([TOOL] + args)
        except BenchError as e:
            self.errors.append("%s: %s" % (what, e))

    # -- set-up -----------------------------------------------------------

    def setup_once(self):
        if self.spec["input"] == "yc":
            out = run_checked([CLI, "generate", "--profile=YC",
                               "--scale=%g" % YC_SCALE, "--seed=%d" % self.seed,
                               "--out=" + self.path("clicks.csv")])
            # The clickstream's shape: "sessions=... purchases=... items=...
            # clicks=...", then the alternatives per session.
            self.record["generate"] = out.strip().splitlines()[1:]
        else:
            out = run_checked([TOOL, "gen-graph", "--seed=%d" % self.seed,
                               "--out=" + self.path("graph.pcg")])
            self.record["graph"] = json.loads(out)

    def setup(self, repeats):
        """Generates the inputs `repeats` times, timing the reference kernel
        before each pass; returns the median CPU time of the generating
        processes."""
        times, cpu_times = [], []
        for _ in range(repeats):
            self.calibrate()
            start, cpu_start = time.perf_counter(), children_cpu_s()
            self.setup_once()
            times.append(time.perf_counter() - start)
            cpu_times.append(children_cpu_s() - cpu_start)
        # Write back what the last pass wrote, so its writeback does not
        # land in the measured runs.
        os.sync()
        self.record["setup_wall_s_each"] = times
        self.record["setup_cpu_s_each"] = cpu_times
        if self.spec["input"] == "yc":
            csv = self.path("clicks.csv")
            with open(csv, "rb") as f:
                rows = sum(chunk.count(b"\n") for chunk in iter(
                    lambda: f.read(1 << 20), b"")) - 1
            self.record["input"] = {"csv_bytes": os.path.getsize(csv),
                                    "csv_rows": rows}
            for pair in self.record["generate"][0].split():
                key, value = pair.split("=")
                self.record["input"][key] = int(value)
        else:
            self.record["input"] = {
                "pcg_bytes": os.path.getsize(self.path("graph.pcg")),
                "nodes": self.record["graph"]["nodes"],
                "edges": self.record["graph"]["edges"]}
        self.record["input"]["query_zipf_s"] = self.spec["zipf_s"]
        return statistics.median(cpu_times)

    # -- the CLI chain: construct -> solve --index_out -> fresh serve ------

    def first_query(self, nodes):
        return "subs %d 4" % (self.seed * 7919 % nodes)

    def chain_once(self):
        """One pass of the user path; returns its timings. `pipeline_s` is
        its wall time; `pipeline_cpu_s` the CPU time of its processes:
        `construct`, `solve` and `serve` up to its first answer."""
        r = {"pipeline_cpu_s": 0.0}
        start = time.perf_counter()
        pcg = self.path("graph.pcg")
        if self.spec["input"] == "yc":
            pcg = self.path("constructed.pcg")
            r["construct_s"], cpu_s, r["construct_rss_mb"], out = timed_verb(
                [CLI, "construct", "--input=" + self.path("clicks.csv"),
                 "--out=" + pcg])
            r["pipeline_cpu_s"] += cpu_s
            self.attempted += 1
            last = out.strip().splitlines()[-1]
            r["variant"] = last.rsplit("variant hint: ", 1)[1].rstrip(")")
            r["nodes"] = int(last.split(": ", 1)[1].split(" nodes")[0])
        else:
            r["nodes"] = self.record["graph"]["nodes"]
        r["solve_s"], cpu_s, r["solve_rss_mb"], _ = timed_verb(
            [CLI, "solve", "--graph=" + pcg, "--k=%d" % self.spec["k"],
             "--out=" + self.path("retained.csv"),
             "--index_out=" + self.path("index.pcsidx")])
        r["pipeline_cpu_s"] += cpu_s
        self.attempted += 1
        server = Server(self.path("index.pcsidx"))
        try:
            r["query"] = self.first_query(r["nodes"])
            r["serve_ready_s"], cpu_s, r["answer"] = server.first_answer(
                r["query"])
            r["pipeline_s"] = time.perf_counter() - start
            r["pipeline_cpu_s"] += cpu_s
        finally:
            server.stop()
        self.attempted += 1
        r["pcg"] = pcg
        # Every pass overwrites the same files; their digests show that
        # each pass wrote what the checked one did.
        outputs = [self.path("retained.csv"), self.path("index.pcsidx")]
        if self.spec["input"] == "yc":
            outputs.append(pcg)
        r["digests"] = [file_digest(path) for path in outputs]
        return r

    def chain(self, repeats):
        """`repeats` passes of the chain, timing the reference kernel before
        each."""
        passes = []
        for _ in range(repeats):
            self.calibrate()
            passes.append(self.chain_once())
        return passes

    def check_last_pass(self, last):
        """Checks the outputs of the pass that ran last against the library
        and writes the index `reload` alternates to (untimed)."""
        if self.spec["input"] == "yc":
            self.check("construct", [
                "check-construct", "--csv=" + self.path("clicks.csv"),
                "--pcg=" + last["pcg"], "--variant=" + last["variant"]])
        self.check("solve", [
            "check-solve", "--pcg=" + last["pcg"], "--k=%d" % self.spec["k"],
            "--retained=" + self.path("retained.csv"),
            "--index=" + self.path("index.pcsidx"),
            "--alt_k=%d" % self.spec["alt_k"],
            "--alt_index_out=" + self.path("alt.pcsidx")])

    def check_passes(self, chain, checked):
        """Every pass wrote the checked pass's bytes and answered its first
        query as AnswerOnIndex does."""
        for i, r in enumerate(chain):
            if r["digests"] != checked["digests"]:
                self.errors.append("pass %d wrote other outputs than the "
                                   "checked pass" % (i + 1))
            self.check("first answer", [
                "check-answer", "--index=" + self.path("index.pcsidx"),
                "--query=" + r["query"], "--answer=" + r["answer"]])

    # -- serving traffic ---------------------------------------------------

    def traffic(self, search_steps, nominal_windows=None):
        # Write back the files set-up and the chain left dirty, so their
        # writeback does not land inside the latency measurement.
        os.sync()
        server = Server(self.path("index.pcsidx"))
        try:
            server.connect().close()
            args = [TOOL, "loadgen", "--port=%d" % server.port,
                    "--server_pid=%d" % server.pid(),
                    "--index=" + self.path("index.pcsidx"),
                    "--alt_index=" + self.path("alt.pcsidx"),
                    "--zipf_s=%g" % self.spec["zipf_s"],
                    "--seed=%d" % self.seed,
                    "--nominal_window_s=%g" % max(0.5, 0.1 * self.seconds),
                    "--step_s=%g" % max(0.5, 0.075 * self.seconds),
                    "--max_steps=%d" % search_steps]
            if nominal_windows is not None:
                args.append("--nominal_windows=%d" % nominal_windows)
            result = json.loads(run_checked(args, timeout=150))
        finally:
            rss_mb = server.stop()
        result["serve_rss_mb"] = rss_mb
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        checks = result["answer_checks"]
        if checks["mismatches"]:
            self.errors.append("served answers: %d of %d sampled differ; %s" % (
                checks["mismatches"], checks["checked"],
                checks["first_mismatch"]))
        stats = result["nominal"]["stats"]
        lookups = stats["cache_hits"] + stats["cache_misses"]
        self.record["traffic"] = {
            "nominal": result["nominal"], "steps": result["steps"],
            "max_qps": result["max_qps"], "reload_s": result["reload_s"],
            "reload_cpu_s": result["reload_cpu_s"],
            "reloads": result["reloads"],
            "cache_hit_share": stats["cache_hits"] / lookups if lookups else 0.0,
            "answer_checks": checks}
        return result

    # -- the two kinds of run ---------------------------------------------

    def end_to_end(self):
        setup_s = self.setup(SETUP_REPEATS)
        # Passes of the chain run before and after the traffic, so they
        # spread over the run. Their CPU time, unlike their wall time, does
        # not count the time the processes waited for a CPU that other
        # tenants of the host held; the scale takes out how fast the host
        # ran them.
        chain = self.chain(CHAIN_REPEATS_BEFORE)
        self.check_last_pass(chain[-1])
        # The nominal phase feeds only the traced run's metrics; here one
        # window of it checks answers before the search.
        result = self.traffic(search_steps=12, nominal_windows=1)
        chain += self.chain(CHAIN_REPEATS_AFTER)
        self.record["chain"] = chain
        self.check_passes(chain, chain[CHAIN_REPEATS_BEFORE - 1])
        scale = self.scale()
        self.record["scale"] = scale
        return {
            "setup_s": scale * setup_s,
            "pipeline_cpu_s": scale * statistics.median(
                [r["pipeline_cpu_s"] for r in chain]),
            "solve_rss_mb": statistics.median([r["solve_rss_mb"] for r in chain]),
            "serve_max_qps": result["max_qps"],
            "serve_rss_mb": result["serve_rss_mb"],
        }

    def per_layer(self):
        self.setup(1)
        chain = [self.chain_once()]
        cli = chain[0]
        self.record["chain"] = chain
        self.check_last_pass(cli)
        self.check_passes(chain, cli)

        trace_path = self.path("replay.trace.json")
        args = [TOOL, "replay", "--k=%d" % self.spec["k"],
                "--work=" + self.work, "--first_query=" + cli["query"],
                "--zipf_s=%g" % self.spec["zipf_s"], "--seed=%d" % self.seed,
                "--trace_out=" + trace_path]
        if self.spec["input"] == "yc":
            args += ["--csv=" + self.path("clicks.csv"),
                     "--variant=" + cli["variant"]]
        else:
            args += ["--pcg=" + self.path("graph.pcg")]
        replay = json.loads(run_checked(args))
        self.record["replay"] = replay
        self.attempted += 1
        try:
            run_checked([TRACE_VALIDATE, "--input=" + trace_path,
                         "--require_categories=perfbench"])
        except BenchError as e:
            self.errors.append("trace: %s" % e)
        self.record["self_time_s"] = self_times(trace_path)

        result = self.traffic(search_steps=2)
        untraced, traced = replay["untraced"], replay["traced"]
        accounted = sum(untraced.get(name, 0.0) for name in LAYER_CALLS)
        stats = result["nominal"]["stats"]
        lookups = stats["cache_hits"] + stats["cache_misses"]
        metrics = {name: traced.get(name, 0.0) for name in PER_LAYER_UNITS}
        metrics.update({
            "serve.batch_mean": stats["requests"] / max(1.0, stats["batches"]),
            "serve.cache_hit_ratio": stats["cache_hits"] / lookups if lookups else 0.0,
            "serve.shed": stats["shed"] + stats["deadline_shed"],
            "serve.deadline_expired": stats["deadline_expired"],
            "loadgen.late_p99_us": result["nominal"]["late_p99_us"],
            "trace.overhead_ratio": traced["pipeline_s"] / untraced["pipeline_s"],
            "pipeline.unaccounted_s": cli["pipeline_s"] - accounted,
            "pipeline_s": cli["pipeline_s"],
            "construct_s": cli.get("construct_s", 0.0),
            "construct_rss_mb": cli.get("construct_rss_mb", 0.0),
            "solve_s": cli["solve_s"],
            "serve_ready_s": cli["serve_ready_s"],
            "reload_s": result["reload_median_s"],
            "reload_cpu_s": self.scale() * result["reload_cpu_median_s"],
            "serve_p50_us": result["nominal"]["p50_us"],
            "serve_p99_us": result["nominal"]["p99_us"],
            "fail_share": self.failed / max(1, self.attempted),
        })
        self.record["layer_share_of_cli"] = {
            "construct": (sum(untraced.get(n, 0.0) for n in LAYER_CALLS[:5]) /
                          cli["construct_s"]) if "construct_s" in cli else None,
            "solve": sum(untraced.get(n, 0.0) for n in LAYER_CALLS[5:10]) /
                     cli["solve_s"]}
        return metrics


def file_digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def self_times(trace_path):
    """Per span name: total duration minus the time its children cover."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    by_tid = {}
    for e in events:
        by_tid.setdefault(e["tid"], []).append(e)
    totals = {}

    def close(entry):
        event, child = entry
        name = event["name"]
        totals[name] = totals.get(name, 0.0) + (event["dur"] - child) * 1e-6

    for evs in by_tid.values():
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [event, time its children cover]
        for e in evs:
            while stack and stack[-1][0]["ts"] + stack[-1][0]["dur"] <= e["ts"]:
                close(stack.pop())
            if stack:
                stack[-1][1] += e["dur"]
            stack.append([e, 0.0])
        while stack:
            close(stack.pop())
    return dict(sorted(totals.items(), key=lambda kv: -kv[1]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=8)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        build()
        os.makedirs(OUT_DIR, exist_ok=True)
        env = json.loads(run_checked([TOOL, "env"]))
        run = Run(args.workload, args.seed, args.seconds, args.trace)
        run.record["env"] = env
        try:
            values = run.per_layer() if args.trace else run.end_to_end()
        finally:
            run.clean_up()
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError,
            ValueError) as e:
        log("error: %s" % e)
        return 1

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    run.record["metrics"] = metrics
    run.record["errors"] = run.errors
    with open(os.path.join(OUT_DIR, "%s-%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump(run.record, f, indent=1)
    for error in run.errors:
        log("check failed: " + error)
    for name, m in metrics.items():
        print("%-32s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": not run.errors and run.failed == 0,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
