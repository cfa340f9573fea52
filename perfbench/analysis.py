"""Metric arithmetic for perfbench: percentiles, span trees, the per-layer
ledger, and the mapping from one driver document to the printed metrics.

Pure functions over plain data, so perfbench/test_analysis.py can check them
on synthetic inputs without building or running anything.
"""

import bisect
import math
import re
import statistics

WORKLOADS = ("batch_suite", "daemon_roundtrip", "decode_images")

# Tail percentile reported per workload: the highest one that still has ten
# samples beyond it at the workload's op rate (a batch op is a whole
# manifest, so batch_suite cannot reach p99 within a run).
TAIL_QUANTILE = {"batch_suite": 0.90, "daemon_roundtrip": 0.99, "decode_images": 0.99}
MIN_BEYOND = 10

# name -> unit
END_TO_END = {
    "setup_s": "s",
    "throughput_mtrit_s": "Mtrit/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "cpu_ms_per_mtrit": "ms/Mtrit",
    "peak_rss_mb": "MB",
    "container_ratio_pct": "%",
    "ok_pct": "%",
}

LAYERS = ("bench", "engine", "lzw", "codec", "hw", "service", "scan")

PER_LAYER = {
    "engine.load.busy_ms": "ms",
    "engine.encode.busy_ms": "ms",
    "engine.container.busy_ms": "ms",
    "engine.verify.busy_ms": "ms",
    "engine.queue.blocked_ms": "ms",
    "engine.queue.notifies_sent": "count",
    "engine.idle_share_pct": "%",
    "engine.runner.queue_wait_us_p50": "us",
    "engine.runner.busy_rejects": "count",
    "lzw.encode.ns_per_trit": "ns/trit",
    "lzw.decode.ns_per_trit": "ns/trit",
    "lzw.container.read_ns_per_byte": "ns/byte",
    "codec.encode_chunks.ns_per_trit": "ns/trit",
    "codec.decode_records.ns_per_trit": "ns/trit",
    "codec.picks.lzw": "count",
    "codec.picks.lz77": "count",
    "codec.picks.rle": "count",
    "codec.picks.huffman": "count",
    "codec.picks.bwt": "count",
    "codec.picks.lfsr": "count",
    "codec.side_info_pct": "%",
    "hw.model.ns_per_trit": "ns/trit",
    "hw.model.cycles_per_trit": "cycles/trit",
    "service.transport_us_p50": "us",
    "service.dispatch_us_p50": "us",
    "service.compress.server_us_p50": "us",
    "service.decompress.server_us_p50": "us",
    "scan.read_tests.ns_per_trit": "ns/trit",
    "obs.trace_overhead_pct": "%",
    "process.sys_cpu_pct": "%",
    "process.ctx_switches_per_op": "count/op",
    **{"ledger.%s.share_pct" % layer: "%" for layer in LAYERS},
    "ledger.reconcile_error_pct": "%",
}

# The ledger must account for the traced phase's wall time (summed over the
# driver's lanes) to within this share, or the run is marked incorrect.
RECONCILE_TOLERANCE_PCT = 2.0

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


# ---------------------------------------------------------------- percentiles

def percentile(samples, q):
    """Nearest-rank percentile: the smallest sample with at least q*n
    samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, q):
    """Samples ranked above the nearest-rank q-th percentile of n."""
    return n - max(1, math.ceil(q * n))


def tail_percentile(samples, q):
    """percentile(), refusing a tail with fewer than MIN_BEYOND samples
    beyond it: such a value is one or two outliers, not a percentile."""
    beyond = samples_beyond(len(samples), q)
    if beyond < MIN_BEYOND:
        raise ValueError("p%g of %d samples has only %d beyond it (need %d)"
                         % (100 * q, len(samples), beyond, MIN_BEYOND))
    return percentile(samples, q)


# ---------------------------------------------------------------- span trees

class Span:
    __slots__ = ("name", "tid", "ts", "dur", "args", "parent", "children",
                 "trace", "self_us", "wall_us")

    def __init__(self, name, tid, ts, dur, args=None):
        self.name = name
        self.tid = tid
        self.ts = ts
        self.dur = dur
        self.args = args or {}
        self.parent = None
        self.children = []
        self.trace = self.args.get("trace")
        self.self_us = 0.0
        self.wall_us = 0.0

    @property
    def end(self):
        return self.ts + self.dur

    def contains(self, other):
        return self.ts <= other.ts and other.end <= self.end


def spans_from_trace(doc):
    """Spans of a Chrome trace_event document as written by
    obs::TraceRecorder (complete "X" events, microsecond times)."""
    return [Span(e["name"], e["tid"], e["ts"], e["dur"], e.get("args"))
            for e in doc["traceEvents"] if e.get("ph") == "X"]


def build_forest(spans):
    """Links every span to its parent and returns the roots.

    A span's parent is the innermost span enclosing it on the same thread.
    A span with no such parent is a thread root, and is linked across
    threads to the innermost span on another thread that encloses it and
    carries the same trace id: the daemon propagates `trace=` from the
    client into the dispatcher and the pool (a thread root without its own
    id takes the id of its first traced descendant, as runner.task does
    from serve.task). A thread root without any trace id (the batch
    engine's stage spans on its worker threads) links to the innermost
    enclosing untraced span on a benchmark lane, i.e. under a "bench.op"
    (the engine.run of that manifest). "bench.op" spans are always roots.
    """
    by_tid = {}
    for s in spans:
        by_tid.setdefault(s.tid, []).append(s)
    thread_root = {}
    thread_roots = []
    for group in by_tid.values():
        group.sort(key=lambda s: (s.ts, -s.dur))
        stack = []
        for s in group:
            while stack and not stack[-1].contains(s):
                stack.pop()
            if stack:
                s.parent = stack[-1]
                stack[-1].children.append(s)
                thread_root[id(s)] = stack[0]
            else:
                thread_roots.append(s)
                thread_root[id(s)] = s
            stack.append(s)

    def first_trace(s):
        if s.trace is not None:
            return s.trace
        for c in s.children:
            t = first_trace(c)
            if t is not None:
                return t
        return None

    def effective_trace(s):
        while s is not None:
            if s.trace is not None:
                return s.trace
            s = s.parent
        return None

    by_start = sorted(spans, key=lambda s: (s.ts, -s.dur))
    starts = [s.ts for s in by_start]
    max_dur = max((s.dur for s in spans), default=0)
    roots = []
    for r in thread_roots:
        if r.name == "bench.op":
            roots.append(r)
            continue
        trace = first_trace(r)
        parent = None
        # Newest start first: the first enclosing match is the innermost.
        j = bisect.bisect_right(starts, r.ts) - 1
        while j >= 0 and by_start[j].ts >= r.ts - max_dur:
            cand = by_start[j]
            j -= 1
            if cand.tid == r.tid or not cand.contains(r):
                continue
            if effective_trace(cand) != trace:
                continue
            if trace is None and thread_root[id(cand)].name != "bench.op":
                continue
            parent = cand
            break
        if parent is None:
            roots.append(r)
        else:
            r.parent = parent
            parent.children.append(r)
    return roots


def union_length(intervals, lo, hi):
    """Length of the union of [a, b) intervals clipped to [lo, hi)."""
    total = 0.0
    cur_a = cur_b = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def compute_self_times(roots):
    """self_us = duration minus the part of it its children cover."""
    stack = list(roots)
    while stack:
        s = stack.pop()
        s.self_us = s.dur - union_length([(c.ts, c.end) for c in s.children], s.ts, s.end)
        stack.extend(s.children)


def compute_wall_shares(roots):
    """Splits each root's wall time over the spans of its tree: at every
    instant a span passes its share on, in equal parts, to its children
    open at that instant, and keeps it when none is open. Shares therefore
    sum to the root durations exactly, also where a span's children run in
    parallel on several threads (where plain self times would add up to
    more than the wall time)."""
    work = [(r, [(r.ts, r.end, 1.0)]) for r in roots]
    while work:
        s, segments = work.pop()
        child_segments = {id(c): [] for c in s.children}
        for a, b, w in segments:
            cuts = {a, b}
            for c in s.children:
                if c.ts < b and c.end > a:
                    cuts.add(max(a, c.ts))
                    cuts.add(min(b, c.end))
            cuts = sorted(cuts)
            for x, y in zip(cuts, cuts[1:]):
                open_children = [c for c in s.children if c.ts <= x and c.end >= y]
                if not open_children:
                    s.wall_us += (y - x) * w
                    continue
                share = w / len(open_children)
                for c in open_children:
                    child_segments[id(c)].append((x, y, share))
        for c in s.children:
            work.append((c, child_segments[id(c)]))


def layer_of(name):
    """Ledger layer of a span name (module names under src/)."""
    special = {
        "bench.read_image": "lzw",      # lzw::try_read_image (stream_io)
        "bench.decode_image": "codec",  # codec::decode_image
        "bench.hw_model": "hw",         # hw::DecompressorModel::try_run
        "bench.read_tests": "scan",     # scan::read_tests
        "runner.task": "engine",
        "client.call": "service",
    }
    if name in special:
        return special[name]
    prefix = name.split(".", 1)[0]
    return {"serve": "service"}.get(prefix, prefix)


def walk(roots):
    stack = list(roots)
    while stack:
        s = stack.pop()
        yield s
        stack.extend(s.children)


# ---------------------------------------------------------------- metrics

def _ns_per_unit(spans, name, units):
    total_us = sum(s.dur for s in spans if s.name == name)
    return 1000.0 * total_us / units if units else 0.0


def _arg_sum(spans, name, key):
    return sum(float(s.args.get(key, 0)) for s in spans if s.name == name)


def _p50(values):
    return percentile(values, 0.5) if values else 0.0


def _ancestor(s, name):
    s = s.parent
    while s is not None and s.name != name:
        s = s.parent
    return s


def min_ops(workload):
    """Ops a run needs so that its tail percentile has MIN_BEYOND samples
    beyond it; run.py hands this to the driver, which runs past
    --seconds until it has them."""
    q = TAIL_QUANTILE[workload]
    n = MIN_BEYOND + 1
    while samples_beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def setup_seconds(setups):
    """The mean of a run's set-ups. Not their median: on a host whose CPUs
    run at two speeds, set-up times fall into two clusters, and a median
    jumps from one to the other when the mix shifts a little."""
    return statistics.fmean(setups)


def throughput(phase):
    """Trits per wall second: the sum over lanes of each lane's trits over
    its wall time."""
    return sum(lane["trits"] / lane["wall_s"] for lane in phase["lanes"])


def latencies(phase):
    return [x for lane in phase["lanes"] for x in lane["latency_ms"]]


def end_to_end_metrics(doc):
    """(metrics, notes) of an untraced run; notes are printed lines."""
    workload = doc["workload"]
    u = doc["untraced"]
    q = TAIL_QUANTILE[workload]
    lat = latencies(u)
    trits = sum(lane["trits"] for lane in u["lanes"])
    ops = u["ops"]
    values = {
        "setup_s": setup_seconds(doc["setup_s"]),
        "throughput_mtrit_s": throughput(u) / 1e6,
        "latency_p50_ms": percentile(lat, 0.5),
        "latency_tail_ms": tail_percentile(lat, q),
        "cpu_ms_per_mtrit": 1000.0 * (u["user_s"] + u["sys_s"]) / (trits / 1e6),
        "peak_rss_mb": doc["peak_rss_kb"] / 1024.0,
        "container_ratio_pct":
            100.0 * (1.0 - 8.0 * doc["container_bytes"] / doc["container_trits"]),
        "ok_pct": 100.0 * (ops - u["failed"]) / ops,
    }
    notes = ["latency_tail_ms is p%g of %d op latencies (%d beyond it): every op of "
             "the untraced phase" % (100 * q, len(lat), samples_beyond(len(lat), q)),
             "setup_s is the mean of %d set-ups: %s"
             % (len(doc["setup_s"]), " ".join("%.4f" % s for s in doc["setup_s"]))]
    return values, notes


def per_layer_metrics(doc, trace_doc):
    """(metrics, ledger rows, reconcile error %) of a traced run."""
    values = {name: 0.0 for name in PER_LAYER}
    values.update(doc.get("layer", {}))
    u, t = doc["untraced"], doc["traced"]
    work = doc.get("work", {})

    spans = spans_from_trace(trace_doc)
    # Spans no op tree claims (none are expected) stay out of the ledger and
    # show up as unattributed time.
    roots = [r for r in build_forest(spans) if r.name == "bench.op"]
    compute_self_times(roots)
    compute_wall_shares(roots)

    values["lzw.encode.ns_per_trit"] = _ns_per_unit(
        spans, "lzw.encode", _arg_sum(spans, "lzw.encode", "input_bits"))
    values["lzw.decode.ns_per_trit"] = _ns_per_unit(
        spans, "lzw.decode", _arg_sum(spans, "lzw.decode", "output_bits"))
    values["lzw.container.read_ns_per_byte"] = _ns_per_unit(
        spans, "bench.read_image", _arg_sum(spans, "bench.read_image", "bytes"))
    values["codec.encode_chunks.ns_per_trit"] = _ns_per_unit(
        spans, "codec.encode_chunks", work.get("codec.encode_chunks", 0))
    values["codec.decode_records.ns_per_trit"] = _ns_per_unit(
        spans, "codec.decode_records", work.get("codec.decode_records", 0))
    values["hw.model.ns_per_trit"] = _ns_per_unit(
        spans, "bench.hw_model", _arg_sum(spans, "bench.hw_model", "trits"))
    # .tests parsing: the benchmark's own scan::read_tests calls, plus the
    # batch engine's load stage (scan::read_tests_file + serialize).
    read_us = sum(s.dur for s in spans if s.name == "bench.read_tests")
    read_trits = _arg_sum(spans, "bench.read_tests", "trits")
    if work.get("engine.load"):
        read_us += sum(s.dur for s in spans if s.name == "engine.load")
        read_trits += work["engine.load"]
    values["scan.read_tests.ns_per_trit"] = 1000.0 * read_us / read_trits if read_trits else 0.0

    runs = [s for s in spans if s.name == "engine.run"]
    run_us = sum(s.dur for s in runs)
    if run_us:
        values["engine.idle_share_pct"] = 100.0 * sum(s.self_us for s in runs) / run_us

    waits, transport, dispatch = [], [], []
    for s in spans:
        if s.name == "serve.task":
            req = _ancestor(s, "serve.request")
            if req is not None:
                waits.append(s.ts - req.ts)
        elif s.name == "serve.request":
            dispatch.append(s.self_us)
            call = _ancestor(s, "client.call")
            if call is not None:
                transport.append(call.dur - s.dur)
    values["engine.runner.queue_wait_us_p50"] = _p50(waits)
    values["service.transport_us_p50"] = _p50(transport)
    values["service.dispatch_us_p50"] = _p50(dispatch)

    values["obs.trace_overhead_pct"] = 100.0 * (1.0 - throughput(t) / throughput(u))
    cpu = u["user_s"] + u["sys_s"]
    values["process.sys_cpu_pct"] = 100.0 * u["sys_s"] / cpu if cpu else 0.0
    values["process.ctx_switches_per_op"] = u["ctx_switches"] / u["ops"]

    # Ledger: wall-time shares per span name and layer.
    by_name = {}
    for s in walk(roots):
        row = by_name.setdefault(s.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s.self_us
        row[2] += s.wall_us
    root_us = sum(r.dur for r in roots)
    lane_us = 1e6 * sum(lane["wall_s"] for lane in t["lanes"])
    shares = {layer: 0.0 for layer in LAYERS}
    for name, (_, _, wall) in by_name.items():
        layer = layer_of(name)
        shares[layer] = shares.get(layer, 0.0) + wall
    for layer in LAYERS:
        values["ledger.%s.share_pct" % layer] = 100.0 * shares[layer] / lane_us
    attributed = sum(shares.values())
    error_pct = 100.0 * (lane_us - attributed) / lane_us
    values["ledger.reconcile_error_pct"] = error_pct
    rows = sorted(((name, layer_of(name), n, self_us, wall)
                   for name, (n, self_us, wall) in by_name.items()),
                  key=lambda r: -r[4])
    ledger = {"rows": rows, "lane_us": lane_us, "root_us": root_us,
              "attributed_us": attributed, "error_pct": error_pct}
    return values, ledger


def result_line(correct, attempted, failed, values, units):
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }
