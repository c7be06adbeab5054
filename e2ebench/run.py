#!/usr/bin/env python3
"""End-to-end benchmark of lima_analyze and lima_monitor.

Run from the root of a LIMA checkout:

    python3 e2ebench/run.py --workload analyze-text --seed 1 --seconds 20 --trace 0

The first run builds the product (the repository's own CMake build,
targets lima_analyze, lima_monitor and lima_cfd) and the benchmark's
helper tool into $CARGO_TARGET_DIR (default .bench_build).  Each run
generates its inputs from --seed, measures fresh product processes for
--seconds, checks every output, and prints a JSON result as the last
line of stdout.  --trace 0 prints the end-to-end metrics; --trace 1
runs the traced replicas and prints the per-layer metrics.  See
e2ebench/README.md for the workloads, the metrics and their definitions.
"""

import argparse
import functools
import json
import math
import os
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()

DEEP_FLAGS = ["--diagnose", "--phases", "--waitstates", "--traffic",
              "--counting", "--patterns"]
WORKLOADS = {
    "analyze-text": {"kind": "analyze", "format": "txt", "flags": []},
    "analyze-limb-deep": {"kind": "analyze", "format": "limb",
                          "flags": DEEP_FLAGS},
    "monitor-follow": {"kind": "monitor"},
}
# Trace size per --size; "full" is the benchmark, "tiny" the self-test.
# lima_monitor's --window is the trace's span over "windows": the seed
# moves the span by up to ±30%, and a fixed width would move the
# monitor's work (one drain and frame per window) with it.
SIZES = {"full": {"procs": 64, "iterations": 200, "windows": 4000},
         "tiny": {"procs": 8, "iterations": 5, "windows": 64}}

ROUND = (0, 1, 0, 1, 0)  # --threads of the timed runs in a round (analyze)
SETUP_PER_ROUND = 4      # minimal-trace invocations per such round
SETUP_MIN = 15           # and at least this many per analyze run
MONITOR_CATCHUPS = 15    # monitor processes that clear the backlog
SETUP_PER_CATCHUP = 1    # and set-up-only monitor processes per catch-up
APPEND_TICK_MS = 10      # live leg: one append every tick
TIMEOUT_S = 30.0         # longest single wait on the product
REF_MS = 50.0            # scaled times are walls on a machine where the
                         # reference kernel takes this long
REF_SUM = b"88172709563442\n"  # lima_e2e_ref's checksum
RUN_BUDGET_S = 165.0     # every run ends well inside 180 s
_deadline = [time.monotonic() + RUN_BUDGET_S]


def time_left():
    return _deadline[0] - time.monotonic()


def timeout():
    """A wait's timeout: TIMEOUT_S, less near the end of the budget."""
    return max(1.0, min(TIMEOUT_S, time_left()))

END_TO_END = [  # name, unit
    ("setup_s", "s"), ("latency_ms_p50", "ms"), ("latency_ms_tail", "ms"),
    ("serial_ms_p50", "ms"), ("events_per_s", "1/s"), ("peak_rss_mb", "MB"),
]
# Layers that make up a traced lima_analyze process, in pipeline order.
ANALYZE_LAYERS = [
    "trace.map_ms", "trace.parse_ms", "trace.decode_ms", "trace.validate_ms",
    "core.reduce_ms", "core.analyze_ms", "trace.stats_ms", "core.phases_ms",
    "core.counting_ms", "core.waitstates_ms", "core.diagnose_ms",
    "core.render_ms", "trace.free_ms",
]
MONITOR_LAYERS = [
    "trace.stream_feed_ms", "core.window_add_ms", "monitor.event_count_ms",
    "core.window_drain_ms", "core.history_ms", "core.dashboard_frame_ms",
    "support.hub_publish_ms", "monitor.report_ms",
]
PER_LAYER = (
    [(n, "ms") for n in ANALYZE_LAYERS] +
    [("trace.bytes", "bytes"), ("trace.parse_ms_t1", "ms"),
     ("trace.parse_mb_per_s", "MB/s"), ("trace.decode_ms_t1", "ms"),
     ("core.reduce_ms_t1", "ms"), ("core.analyze_ms_t1", "ms"),
     ("traced_wall_ms", "ms"), ("other_ms", "ms"), ("other_pct", "%")] +
    [(n, "ms") for n in MONITOR_LAYERS] +
    [("trace.stream_feed_ns_per_event", "ns"),
     ("core.window_drain_ms_tail", "ms"),
     ("support.sse_delivery_ms_p50", "ms"),
     ("monitor.poll_wait_ms_p50", "ms"),
     ("support.frames_dropped", "count"),
     ("monitor.windows_missing", "count"),
     ("monitor.windows_duplicated", "count"),
     ("failed_ratio", "ratio"),
     ("env.append_late_ms_max", "ms"),
     ("env.cpu_parallelism", "x"), ("env.nproc", "count"),
     ("env.reference_ms", "ms"),
     ("trace_overhead_pct", "%")])


class BenchError(Exception):
    """A failure that leaves no result to print (build, prep, oracle)."""


def note(msg):
    print(msg, flush=True)


# --------------------------------------------------------------------------
# Build and inputs
# --------------------------------------------------------------------------

def build(bd):
    """Builds the product and the helper tool; returns their binaries."""
    prod = os.path.join(bd, "product")
    tool = os.path.join(bd, "tool")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(prod, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", prod,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", prod, "-j", jobs, "--target",
                  "lima_analyze", "lima_monitor", "lima_cfd"])
    steps.append(["cmake", "-S", HERE, "-B", tool,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                  "-DLIMA_SOURCE_DIR=" + ROOT, "-DLIMA_PRODUCT_DIR=" + prod])
    steps.append(["cmake", "--build", tool, "-j", jobs])
    os.makedirs(bd, exist_ok=True)
    with open(os.path.join(bd, "build.log"), "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                raise BenchError("build step failed: %s (see %s)" %
                                 (" ".join(cmd), log.name))
    return {
        "analyze": os.path.join(prod, "examples", "lima_analyze"),
        "monitor": os.path.join(prod, "src", "apps", "lima_monitor",
                                "lima_monitor"),
        "tool": os.path.join(tool, "lima_e2e"),
        "ref": os.path.join(tool, "lima_e2e_ref"),
        "product_dir": prod,
    }


def run_tool(bins, args, capture=False):
    out = subprocess.run([bins["tool"]] + args, stdin=subprocess.DEVNULL,
                         stdout=subprocess.PIPE if capture else None,
                         stderr=subprocess.PIPE, text=True)
    if out.returncode != 0:
        raise BenchError("lima_e2e %s failed: %s" % (args[0], out.stderr))
    return out.stdout


def prepare(bd, bins, seed, size):
    """Generates (or reuses) the seeded inputs; returns (dir, manifest)."""
    work = os.path.join(bd, "work")
    d = os.path.join(work, "seed%d-%s" % (seed, size))
    stamp = str(os.stat(bins["tool"]).st_mtime_ns)
    stamp_path = os.path.join(d, "stamp")
    if not (os.path.exists(stamp_path) and open(stamp_path).read() == stamp):
        os.makedirs(work, exist_ok=True)
        # Keep the two most recent other seeds; each holds ~180 MB.
        old = sorted((os.path.join(work, x) for x in os.listdir(work)),
                     key=os.path.getmtime)
        for x in [x for x in old if x != d][:-2]:
            shutil.rmtree(x, ignore_errors=True)
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        cfg = SIZES[size]
        run_tool(bins, ["generate", "--seed", str(seed), "--procs",
                        str(cfg["procs"]), "--iterations",
                        str(cfg["iterations"]), "--dir", d])
        with open(stamp_path, "w") as f:
            f.write(stamp)
    os.utime(d)
    with open(os.path.join(d, "manifest.json")) as f:
        return d, json.load(f)


# --------------------------------------------------------------------------
# Statistics
# --------------------------------------------------------------------------

def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(xs):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile).  The percentile is snapped down to a
    multiple of 5 below p95 (so a sample more or less does not move it)
    and clamped to [p50, p99]; below 20 samples it is p50, the median,
    with fewer than ten beyond.  An analyze run at --seconds 20 makes
    about 24-36 --threads 0 samples, so its tail is p55 to p70.
    """
    n = len(xs)
    p = math.floor(100.0 * (n - 10) / n) if n else 50
    if p < 95:
        p -= p % 5
    p = min(99, max(50, p))
    if p == 50:
        return median(xs), p
    s = sorted(xs)
    return s[max(0, math.ceil(p / 100.0 * n) - 1)], p


# --------------------------------------------------------------------------
# Processes
# --------------------------------------------------------------------------

def spawn(argv, stdout_path, stderr_path):
    out = os.open(stdout_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    err = os.open(stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        return os.posix_spawn(argv[0], argv, os.environ, file_actions=[
            (os.POSIX_SPAWN_DUP2, out, 1), (os.POSIX_SPAWN_DUP2, err, 2),
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0)])
    finally:
        os.close(out)
        os.close(err)


def reap(pid):
    """Waits for pid (SIGKILL on timeout); returns (exit code, maxrss MB)."""
    deadline = time.monotonic() + timeout()
    while True:
        got, status, ru = os.wait4(pid, os.WNOHANG)
        if got == pid:
            return os.waitstatus_to_exitcode(status), ru.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            _, status, ru = os.wait4(pid, 0)
            return -9, ru.ru_maxrss / 1024.0
        time.sleep(0.001)


def timed_run(argv, out_path, err_path):
    """One fresh process, waited for; returns (wall ms, exit code, rss MB)."""
    t0 = time.perf_counter_ns()
    pid = spawn(argv, out_path, err_path)
    watchdog = threading.Timer(timeout(), os.kill, (pid, signal.SIGKILL))
    watchdog.start()
    _, status, ru = os.wait4(pid, 0)
    wall = (time.perf_counter_ns() - t0) / 1e6
    watchdog.cancel()
    return wall, os.waitstatus_to_exitcode(status), ru.ru_maxrss / 1024.0


def reference_ms(ctx):
    """The wall of one lima_e2e_ref process (ms).

    An analyze run's walls are scaled by REF_MS / the median of these,
    run one right after each timed lima_analyze process."""
    d = ctx["dir"]
    out = os.path.join(d, "ref.stdout")
    wall, code, _ = timed_run([ctx["bins"]["ref"]], out,
                              os.path.join(d, "ref.stderr"))
    if code != 0 or read(out) != REF_SUM:
        raise BenchError("reference kernel: exit %d, checksum %r" %
                         (code, read(out)))
    return wall


class Tally:
    """attempted / failed, with the first few failure reasons kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, ok, reason):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 8:
                self.reasons.append(reason)
        return ok


def read(path):
    with open(path, "rb") as f:
        return f.read()


# --------------------------------------------------------------------------
# analyze-* workloads
# --------------------------------------------------------------------------

def run_analyze(ctx, wl):
    d, bins, seconds = ctx["dir"], ctx["bins"], ctx["seconds"]
    trace = os.path.join(d, "trace." + wl["format"])
    small = os.path.join(d, "min." + wl["format"])
    out, err = os.path.join(d, "stdout"), os.path.join(d, "stderr")
    tally = ctx["tally"]

    analyze = [bins["analyze"]]
    traced = [bins["tool"], "traced-analyze"]

    def argv(cmd, path, threads):
        return cmd + ["--threads", str(threads)] + wl["flags"] + [path]

    def golden(path):
        wall, code, _ = timed_run(argv(analyze, path, 1), out, err)
        if code != 0:
            raise BenchError("golden run failed (%d): %s" %
                             (code, read(err)[-500:]))
        g = read(out)
        if ctx["corrupt_golden"]:
            g = g[:-1] + bytes([g[-1] ^ 1])
        return g

    gold, gold_small = golden(trace), golden(small)

    def invoke(cmd, path, threads, expect, extra=()):
        wall, code, rss = timed_run(argv(cmd, path, threads) + list(extra),
                                    out, err)
        ok = tally.check(code == 0 and read(out) == expect,
                         "%s --threads %s: exit %d%s" %
                         (" ".join(os.path.basename(c) for c in cmd), threads,
                          code, "" if code else ", output differs from golden"))
        return wall, rss, ok

    invoke(analyze, trace, 0, gold)  # warm-up: page cache, CPU clocks
    r = {"setup_s": [], "t0": [], "t1": [], "ref": [], "rss": [],
         "traced": [], "traced_t1": []}  # traced: (wall, layers) pairs
    reference_ms(ctx)  # warm-up

    def probe():
        r["setup_s"].append(invoke(analyze, small, 0, gold_small)[0] / 1e3)

    deadline = time.monotonic() + seconds
    if not ctx["trace"]:
        # Default-thread and serial runs interleave, so both sample the
        # whole run; so do the set-up probes, which ride along.
        while ((time.monotonic() < deadline or len(r["t1"]) < 5)
               and time_left() > 10):
            for _ in range(SETUP_PER_ROUND):
                probe()
            for threads in ROUND:
                wall, rss, _ = invoke(analyze, trace, threads, gold)
                r["t%d" % threads].append(wall)
                r["ref"].append(reference_ms(ctx))
                if threads == 0:
                    r["rss"].append(rss)
        while len(r["setup_s"]) < SETUP_MIN:
            probe()
        return r
    timings = os.path.join(d, "timings.json")
    while ((time.monotonic() < deadline or len(r["traced_t1"]) < 3)
           and time_left() > 10):
        wall, rss, _ = invoke(analyze, trace, 0, gold)
        r["t0"].append(wall)
        r["ref"].append(reference_ms(ctx))
        for threads, key in ((0, "traced"), (1, "traced_t1")):
            wall, _, ok = invoke(traced, trace, threads, gold,
                                 ["--timings", timings])
            if ok:
                with open(timings) as f:
                    layers = json.load(f)["layers"]
                unknown = sorted(set(layers) - set(ANALYZE_LAYERS))
                if unknown:  # its time would land in other_ms unseen
                    raise BenchError("traced-analyze wrote unknown layers: "
                                     + ", ".join(unknown))
                if sum(layers.values()) > wall:  # layers overlap
                    raise BenchError("traced-analyze layers (%.3f ms) exceed "
                                     "its process wall (%.3f ms)" %
                                     (sum(layers.values()), wall))
                r[key].append((wall, layers))
    return r


def analyze_metrics(ctx, r):
    m = ctx["manifest"]
    if not ctx["trace"]:
        wall_tail, p = tail(r["t0"])
        scale = REF_MS / median(r["ref"])
        p50, lat_tail = median(r["t0"]) * scale, wall_tail * scale
        serial = median(r["t1"]) * scale
        events = m["events"]
        n0, n1 = len(r["t0"]), len(r["t1"])
        ctx["report"].update({
            "latency_ms_p50": "%.3f ms at reference speed (n=%d)" % (p50, n0),
            "latency_ms_tail": "%.3f ms at reference speed (p%d of n=%d)" %
            (lat_tail, p, n0),
            "serial_ms_p50": "%.3f ms at reference speed (n=%d)" % (serial,
                                                                    n1),
            "wall_ms_p50": "%.3f ms (n=%d)" % (median(r["t0"]), n0),
            "wall_ms_tail": "%.3f ms (p%d of n=%d)" % (wall_tail, p, n0),
            "wall_ms_t1_p50": "%.3f ms (n=%d)" % (median(r["t1"]), n1),
            "reference_ms_p50": "%.3f ms (n=%d)" % (median(r["ref"]),
                                                    len(r["ref"])),
            "setup_s": "%.6f s (n=%d)" % (median(r["setup_s"]),
                                          len(r["setup_s"])),
        })
        return {
            "setup_s": median(r["setup_s"]),
            "latency_ms_p50": p50,
            "latency_ms_tail": lat_tail,
            "serial_ms_p50": serial,
            "events_per_s": events / (p50 / 1e3) if p50 else 0.0,
            "peak_rss_mb": median(r["rss"]),
        }
    layers = {}
    for name in ANALYZE_LAYERS:
        layers[name] = median([l.get(name, 0.0) for _, l in r["traced"]])
    wall = median([w for w, _ in r["traced"]])
    untraced = median(r["t0"])
    # Per traced run: the process wall less that run's layers.
    others = [w - sum(l.values()) for w, l in r["traced"]]
    t1 = {name: median([l.get(name, 0.0) for _, l in r["traced_t1"]])
          for name in ("trace.parse_ms", "trace.decode_ms", "core.reduce_ms",
                       "core.analyze_ms")}
    bytes_ = m["text_bytes" if ctx["wl"]["format"] == "txt" else "limb_bytes"]
    parse = layers["trace.parse_ms"]
    out = dict(layers)
    out.update({
        "trace.bytes": bytes_,
        "trace.parse_ms_t1": t1["trace.parse_ms"],
        "trace.parse_mb_per_s": bytes_ / 1e6 / (parse / 1e3) if parse else 0.0,
        "trace.decode_ms_t1": t1["trace.decode_ms"],
        "core.reduce_ms_t1": t1["core.reduce_ms"],
        "core.analyze_ms_t1": t1["core.analyze_ms"],
        "traced_wall_ms": wall,
        "other_ms": median(others),
        "other_pct": median([100.0 * o / w for o, (w, _) in
                             zip(others, r["traced"])]),
        "trace_overhead_pct": 100.0 * (wall / untraced - 1.0) if untraced
        else 0.0,
        "env.reference_ms": median(r["ref"]),
    })
    ctx["report"]["samples"] = "traced n=%d, traced_t1 n=%d, untraced n=%d" % (
        len(r["traced"]), len(r["traced_t1"]), len(r["t0"]))
    return out


# --------------------------------------------------------------------------
# monitor-follow
# --------------------------------------------------------------------------

FRAME_ID = re.compile(rb'^event: window\ndata: \{"id":(\d+),')


class EventsReader(threading.Thread):
    """Reads an /events stream and records each window frame's arrival."""

    def __init__(self, sock, pending):
        super().__init__(daemon=True)
        self.sock = sock
        self.buf = pending
        self.frames = []          # (id, arrival ns, frame bytes)
        self.first = {}           # id -> arrival ns of its first frame
        self.cond = threading.Condition()
        self.closed = False

    def run(self):
        try:
            while True:
                self._split(time.monotonic_ns())
                data = self.sock.recv(1 << 16)
                if not data:
                    break
                self.buf += data
        except OSError:
            pass
        with self.cond:
            self.closed = True
            self.cond.notify_all()

    def _split(self, now):
        while True:
            end = self.buf.find(b"\n\n")
            if end < 0:
                return
            frame, self.buf = self.buf[:end + 2], self.buf[end + 2:]
            match = FRAME_ID.match(frame)
            if match:
                wid = int(match.group(1))
                with self.cond:
                    self.frames.append((wid, now, frame))
                    self.first.setdefault(wid, now)
                    self.cond.notify_all()

    def wait_for(self, wid):
        with self.cond:
            self.cond.wait_for(lambda: wid in self.first or self.closed,
                               timeout())
            return self.first.get(wid)


def http_get(port, path):
    with socket.create_connection(("127.0.0.1", port), timeout=5) as s:
        s.sendall(b"GET " + path.encode() + b" HTTP/1.0\r\n\r\n")
        data = b""
        while True:
            chunk = s.recv(4096)
            if not chunk:
                break
            data += chunk
    return data


def proc_io(pid, key):
    """A counter from /proc/<pid>/io: rchar is the bytes the process has
    read, syscr its read calls (-1 once it is gone)."""
    try:
        with open("/proc/%d/io" % pid) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return -1


def wait_while(fn, value):
    """Polls fn() until it differs from value (or the wait times out)."""
    give_up = time.monotonic() + timeout()
    while fn() == value and time.monotonic() < give_up:
        time.sleep(0.0002)


def read_offset(pid, path):
    """pid's file offset in path (-1 once it holds no descriptor for it)."""
    try:
        fds = "/proc/%d/fd" % pid
        for fd in os.listdir(fds):
            if os.readlink(os.path.join(fds, fd)) == path:
                with open("/proc/%d/fdinfo/%s" % (pid, fd)) as f:
                    for line in f:
                        if line.startswith("pos:"):
                            return int(line.split()[1])
    except OSError:
        pass
    return -1


class Monitor:
    """One monitor process following a fresh file that holds only the
    trace's declarations, plus its /events subscriber."""

    def __init__(self, ctx, argv):
        d = ctx["dir"]
        follow = os.path.realpath(os.path.join(d, "follow.txt"))
        self.path = follow
        with open(follow, "wb") as f:
            f.write(ctx["monitor_text"][:ctx["manifest"]
                                        ["monitor_header_bytes"]])
        self.follow = os.open(follow, os.O_WRONLY | os.O_APPEND)
        out = os.path.join(d, "monitor.stdout")
        t0 = time.monotonic()
        self.pid = spawn(argv + [follow], out,
                         os.path.join(d, "monitor.stderr"))
        self.exit_code = None
        self.rss = 0.0
        port = None
        while port is None:
            m = re.search(rb"status server listening address=[\d.]+:(\d+)",
                          read(out))
            if m:
                port = int(m.group(1))
            elif time.monotonic() - t0 > timeout():
                self.stop()
                raise BenchError("monitor did not start")
            else:
                time.sleep(0.0005)
        if not http_get(port, "/healthz").startswith(b"HTTP/1.1 200"):
            self.stop()
            raise BenchError("monitor /healthz not 200")
        sock = socket.create_connection(("127.0.0.1", port), timeout=None)
        sock.sendall(b"GET /events HTTP/1.0\r\n\r\n")
        head = b""
        while b"\r\n\r\n" not in head:
            chunk = sock.recv(4096)
            if not chunk:
                raise BenchError("monitor closed /events")
            head += chunk
        self.setup_s = time.monotonic() - t0
        head, rest = head.split(b"\r\n\r\n", 1)
        self.reader = EventsReader(sock, rest)
        self.reader.start()
        self.sock = sock

    def append(self, data):
        view = memoryview(data)
        while view:
            view = view[os.write(self.follow, view):]

    def stop(self):
        """SIGTERM (graceful: final windows are flushed), then reap.

        lima_monitor stops at its next read boundary, so the signal waits
        until it has read the whole file; earlier, the stream would end
        mid-line or short of the last windows."""
        if self.exit_code is None:
            size = os.fstat(self.follow).st_size
            give_up = time.monotonic() + timeout()
            while (0 <= read_offset(self.pid, self.path) < size and
                   time.monotonic() < give_up):
                time.sleep(0.001)
            os.kill(self.pid, signal.SIGTERM)
            self.exit_code, self.rss = reap(self.pid)
            os.close(self.follow)
        if hasattr(self, "reader"):
            self.reader.join(timeout())
            self.sock.close()


def load_oracle(ctx):
    d, m, bins = ctx["dir"], ctx["manifest"], ctx["bins"]
    chunks = max(1, int(ctx["seconds"] * 1000 / APPEND_TICK_MS))
    tag = "w%s-c%d" % (ctx["window"], chunks)
    frames_path = os.path.join(d, "frames-%s.txt" % tag)
    oracle_path = os.path.join(d, "oracle-%s.json" % tag)
    if not os.path.exists(oracle_path):
        run_tool(bins, ["oracle", os.path.join(d, "monitor.txt"),
                        "--window", ctx["window"],
                        "--half-offset", str(m["monitor_half_offset"]),
                        "--chunks", str(chunks), "--frames", frames_path,
                        "--out", oracle_path + ".tmp"])
        os.replace(oracle_path + ".tmp", oracle_path)
    with open(oracle_path) as f:
        o = json.load(f)
    frames = {}
    for frame in read(frames_path).split(b"\n\n")[:-1]:
        frame += b"\n\n"
        frames[int(FRAME_ID.match(frame).group(1))] = frame
    if len(frames) != o["windows"]:
        raise BenchError("oracle frame count mismatch")
    live = {wid for wid, _ in o["closed"]}
    if (set(o["catchup_ids"]) | live | set(o["final_ids"])) != set(frames):
        raise BenchError("streamed windows differ from the batch windows")
    if ctx["corrupt_golden"]:
        wid = o["catchup_ids"][0]
        frames[wid] = frames[wid].replace(b'"events":', b'"events":1')
    o["frames"] = frames
    return o


def verify_frames(mon, expected_ids, oracle, tally, counts):
    """Every expected window exactly once, equal to the oracle frame."""
    seen = {}
    for wid, _, frame in mon.reader.frames:
        if wid in expected_ids:
            seen.setdefault(wid, []).append(frame)
    for wid in expected_ids:
        got = seen.get(wid, [])
        if not got:
            counts["missing"] += 1
        elif len(got) > 1:
            counts["duplicated"] += 1
        tally.check(len(got) == 1 and got[0] == oracle["frames"][wid],
                    "window %d: %d frames%s" % (
                        wid, len(got), "" if not got or
                        got[0] == oracle["frames"][wid] else ", content "
                        "differs from WindowedAnalyzer::addTrace"))


def monitor_session(ctx, oracle, binary_argv, live):
    """Spawn, subscribe, clear the backlog, optionally run the live leg.

    Returns a dict with setup_s, catchup_ms, rss, lags, due times and
    the Monitor (stopped)."""
    m, text = ctx["manifest"], ctx["monitor_text"]
    backlog = text[m["monitor_header_bytes"]:m["monitor_half_offset"]]
    mon = Monitor(ctx, binary_argv)
    res = {"setup_s": mon.setup_s, "mon": mon}
    try:
        # Append right after one of the monitor's idle reads, so the whole
        # backlog is in the file before its next read (a poll is 200 ms,
        # the write a few ms); the catch-up starts when that read returns
        # data.
        polls = functools.partial(proc_io, mon.pid, "syscr")
        wait_while(polls, polls())
        read = functools.partial(proc_io, mon.pid, "rchar")
        before = read()
        mon.append(backlog)
        wait_while(read, before)
        wake = time.monotonic_ns()
        last = oracle["catchup_ids"][-1]
        arrived = mon.reader.wait_for(last)
        res["catchup_ms"] = (arrived - wake) / 1e6 if arrived else None
        if live:
            ends = oracle["chunk_ends"]
            start = m["monitor_half_offset"]
            t0 = time.monotonic_ns() + 20_000_000
            due, late = [], []
            for c, end in enumerate(ends):
                at = t0 + c * APPEND_TICK_MS * 1_000_000
                wait = (at - time.monotonic_ns()) / 1e9
                if wait > 0:
                    time.sleep(wait)
                mon.append(text[start:end])
                late.append((time.monotonic_ns() - at) / 1e6)
                due.append(at)
                start = end
            res["due"], res["late"] = due, late
            closing = oracle["closed"][-1][0] if oracle["closed"] else last
            mon.reader.wait_for(closing)
    finally:
        mon.stop()
    res["rss"] = mon.rss
    if live:
        res["lags"] = [(mon.reader.first[wid] - res["due"][c]) / 1e6
                       for wid, c in oracle["closed"]
                       if wid in mon.reader.first]
    return res


def run_monitor(ctx):
    bins, tally, oracle = ctx["bins"], ctx["tally"], ctx["oracle"]
    catchup = set(oracle["catchup_ids"])
    everything = set(oracle["frames"])
    counts = {"missing": 0, "duplicated": 0}
    argv = [bins["monitor"], "--follow", "--http", "127.0.0.1:0",
            "--window", ctx["window"]]
    r = {"setup_s": [], "catchup_ms": [], "rss": [], "counts": counts,
         "oracle": oracle}

    def setup_only():
        """A monitor that is only started, subscribed and stopped."""
        mon = Monitor(ctx, argv)
        mon.stop()
        r["setup_s"].append(mon.setup_s)
        tally.check(mon.exit_code == 0 and not mon.reader.frames,
                    "set-up-only monitor: exit %s, %d frames" %
                    (mon.exit_code, len(mon.reader.frames)))

    def session(binary_argv, live, expected):
        if not live and time_left() < ctx["seconds"] + 45:
            tally.check(False, "catch-up leg skipped: out of time")
            return None
        s = monitor_session(ctx, oracle, binary_argv, live)
        r["setup_s"].append(s["setup_s"])
        if s["catchup_ms"] is not None:
            r["catchup_ms"].append(s["catchup_ms"])
        r["rss"].append(s["rss"])
        tally.check(s["mon"].exit_code == 0,
                    "monitor exit %s" % s["mon"].exit_code)
        verify_frames(s["mon"], expected, oracle, tally, counts)
        return s

    if not ctx["trace"]:
        for _ in range(MONITOR_CATCHUPS - 1):
            for _ in range(SETUP_PER_CATCHUP):
                setup_only()
            session(argv, False, catchup)
        for _ in range(SETUP_PER_CATCHUP):
            setup_only()
        s = session(argv, True, everything)
        r["lags"], r["late"] = s["lags"], s["late"]
        return r

    # Traced: the untraced catch-up baseline, then the replica end to end.
    for _ in range(2):
        session(argv, False, catchup)
    r["untraced_catchup_ms"] = list(r["catchup_ms"])
    timings = os.path.join(ctx["dir"], "timings.json")
    if os.path.exists(timings):
        os.remove(timings)
    replica = [bins["tool"], "traced-monitor", "--window",
               ctx["window"], "--timings", timings]
    s = session(replica, True, everything)
    r["late"] = s["late"]
    r["traced_catchup_ms"] = s["catchup_ms"]
    r["timings"] = {"layers": {}, "events": 0, "frames_dropped": 0,
                    "drain_ms": [], "windows": []}
    if os.path.exists(timings):   # absent only if the replica failed
        with open(timings) as f:
            r["timings"] = json.load(f)
    r["due_by_window"] = {wid: s["due"][c] for wid, c in oracle["closed"]}
    r["arrival"] = dict(s["mon"].reader.first)
    return r


def monitor_metrics(ctx, r):
    counts = r["counts"]
    late_max = max(r["late"]) if r["late"] else 0.0
    if not ctx["trace"]:
        lag_tail, p = tail(r["lags"])
        catch = median(r["catchup_ms"])
        events = r["oracle"]["catchup_events"]
        ctx["report"].update({
            "lag_ms_p50": "%.3f ms (n=%d windows)" % (median(r["lags"]),
                                                     len(r["lags"])),
            "lag_ms_tail": "%.3f ms (p%d of n=%d)" % (lag_tail, p,
                                                       len(r["lags"])),
            "catchup_ms_p50": "%.3f ms (n=%d, %d events; %s)" % (
                catch, len(r["catchup_ms"]), events,
                " ".join("%.0f" % x for x in r["catchup_ms"])),
            "setup_s": "%.6f s (n=%d)" % (median(r["setup_s"]),
                                          len(r["setup_s"])),
            "window": "%s s, %d catch-up windows" % (
                ctx["window"], len(r["oracle"]["catchup_ids"])),
            "append_late_ms_max": "%.3f ms" % late_max,
        })
        return {
            "setup_s": median(r["setup_s"]),
            "latency_ms_p50": median(r["lags"]),
            "latency_ms_tail": lag_tail,
            "serial_ms_p50": catch,
            "events_per_s": events / (catch / 1e3) if catch else 0.0,
            "peak_rss_mb": median(r["rss"]),
        }
    t = r["timings"]
    layers = t["layers"]
    out = {name: layers.get(name, 0.0) for name in MONITOR_LAYERS}
    delivery, poll_wait = [], []
    for wid, wake_ns, publish_ns in t["windows"]:
        if wid in r["arrival"]:
            delivery.append((r["arrival"][wid] - publish_ns) / 1e6)
        if wid in r["due_by_window"]:
            poll_wait.append((wake_ns - r["due_by_window"][wid]) / 1e6)
    drain_tail, p = tail(t["drain_ms"])
    untraced = median(r["untraced_catchup_ms"])
    out.update({
        "trace.stream_feed_ns_per_event":
            1e6 * layers.get("trace.stream_feed_ms", 0.0) / max(1, t["events"]),
        "core.window_drain_ms_tail": drain_tail,
        "support.sse_delivery_ms_p50": median(delivery),
        "monitor.poll_wait_ms_p50": median(poll_wait),
        "support.frames_dropped": t["frames_dropped"],
        "monitor.windows_missing": counts["missing"],
        "monitor.windows_duplicated": counts["duplicated"],
        "env.append_late_ms_max": late_max,
        "trace_overhead_pct": 100.0 * (r["traced_catchup_ms"] / untraced - 1.0)
        if untraced and r["traced_catchup_ms"] else 0.0,
    })
    ctx["report"]["samples"] = (
        "windows=%d drains=%d (drain tail p%d) delivery n=%d poll_wait n=%d" %
        (len(t["windows"]), len(t["drain_ms"]), p, len(delivery),
         len(poll_wait)))
    return out


# --------------------------------------------------------------------------
# Context stamps
# --------------------------------------------------------------------------

def calibrate(bins):
    out = run_tool(bins, ["calibrate", "--threads", str(os.cpu_count() or 1)],
                   capture=True)
    return json.loads(out)["parallelism"]


def stamps(bins):
    cache = {}
    with open(os.path.join(bins["product_dir"], "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"(CMAKE_BUILD_TYPE|CMAKE_CXX_COMPILER):[A-Z]+=(.*)",
                         line)
            if m:
                cache[m.group(1)] = m.group(2).strip()
    compiler = "unknown"
    try:
        compiler = subprocess.run(
            [cache.get("CMAKE_CXX_COMPILER", "c++"), "--version"],
            capture_output=True, text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel",
                          "--short", "HEAD"], capture_output=True, text=True)
    lines = rev.stdout.split()
    in_repo = rev.returncode == 0 and len(lines) == 2 and \
        os.path.realpath(lines[0]) == os.path.realpath(ROOT)
    return {"nproc": os.cpu_count(), "compiler": compiler,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
            "git_rev": lines[1] if in_repo else "unknown (not a git checkout)"}


# --------------------------------------------------------------------------
# Main
# --------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full",
                    help="trace size (tiny is the self-test's)")
    ap.add_argument("--corrupt-golden", action="store_true",
                    help="damage the expected output (oracle self-check)")
    args = ap.parse_args()

    bd = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bd = os.path.join(ROOT, bd)
    try:
        bins = build(bd)
        _deadline[0] = time.monotonic() + RUN_BUDGET_S  # the build is extra
        t0 = time.monotonic()
        d, manifest = prepare(bd, bins, args.seed, args.size)
        wl = WORKLOADS[args.workload]
        ctx = {"dir": d, "bins": bins, "seconds": args.seconds,
               "trace": args.trace, "manifest": manifest, "wl": wl,
               "corrupt_golden": args.corrupt_golden, "tally": Tally(),
               "report": {}}
        if wl["kind"] == "monitor":
            ctx["window"] = "%g" % (manifest["span_seconds"] /
                                    SIZES[args.size]["windows"])
            ctx["monitor_text"] = read(os.path.join(d, "monitor.txt"))
            ctx["oracle"] = load_oracle(ctx)
        prep_s = time.monotonic() - t0
        cpu_before = calibrate(bins)
        if wl["kind"] == "analyze":
            r = run_analyze(ctx, wl)
            metrics = analyze_metrics(ctx, r)
        else:
            r = run_monitor(ctx)
            metrics = monitor_metrics(ctx, r)
        cpu_after = calibrate(bins)
    except BenchError as e:
        print("e2ebench: %s" % e, file=sys.stderr)
        return 1

    tally = ctx["tally"]
    context = stamps(bins)
    context.update({"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "prep_s": round(prep_s, 3),
                    "cpu_parallelism_before": cpu_before,
                    "cpu_parallelism_after": cpu_after, "inputs": manifest})
    note("context: " + json.dumps(context, sort_keys=True))
    for key, value in ctx["report"].items():
        note("  %s: %s" % (key, value))
    failed_ratio = tally.failed / max(1, tally.attempted)
    note("  failed_ratio: %.6f (%d of %d)" % (failed_ratio, tally.failed,
                                              tally.attempted))
    for reason in tally.reasons:
        note("  failure: " + reason)

    if args.trace:
        full = {name: 0.0 for name, _ in PER_LAYER}
        full.update(metrics)
        full["failed_ratio"] = failed_ratio
        full["env.cpu_parallelism"] = (cpu_before + cpu_after) / 2
        full["env.nproc"] = os.cpu_count() or 1
        units = dict(PER_LAYER)
    else:
        full = metrics
        units = dict(END_TO_END)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": full[name], "unit": units[name]}
                          for name in units}}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
