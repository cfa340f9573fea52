#!/bin/sh
# End-to-end exercise of the tdc_cli toolchain: generate cubes for a small
# suite circuit, compress, inspect, verify, decompress, dump a waveform,
# round-trip a netlist through both textual formats, and prove the hardened
# container actually rejects damaged files.
set -e

CLI="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
export TDC_CACHE_DIR="$WORK/cache"

"$CLI" gen itc_b09f "$WORK/c.tests"
"$CLI" inspect "$WORK/c.tests" | grep -q "patterns"
"$CLI" info "$WORK/c.tests" | grep -q "patterns"   # legacy alias
"$CLI" compress "$WORK/c.tests" "$WORK/c.tdclzw" --dict 256
"$CLI" inspect "$WORK/c.tdclzw" | grep -q "TDCLZW2"
"$CLI" inspect "$WORK/c.tdclzw" | grep -q "chunks"
"$CLI" verify "$WORK/c.tdclzw" | grep -q "OK"
"$CLI" decompress "$WORK/c.tdclzw" "$WORK/full.tests"
"$CLI" inspect "$WORK/full.tests" | grep -q "0.0% don't-cares"
"$CLI" wave "$WORK/c.tdclzw" "$WORK/c.vcd" 4
grep -q '$enddefinitions' "$WORK/c.vcd"
grep -q "fsm_state" "$WORK/c.vcd"

# Legacy container still writes and reads (backward compatibility).
"$CLI" compress "$WORK/c.tests" "$WORK/c1.tdclzw" --dict 256 --v1
"$CLI" inspect "$WORK/c1.tdclzw" | grep -q "TDCLZW1"
"$CLI" verify "$WORK/c1.tdclzw" | grep -q "OK"
"$CLI" decompress "$WORK/c1.tdclzw" "$WORK/full1.tests"
cmp "$WORK/full.tests" "$WORK/full1.tests"

# Corruption is detected, never UB: damaged header field -> header CRC.
cp "$WORK/c.tdclzw" "$WORK/badhdr.tdclzw"
printf '\377' | dd of="$WORK/badhdr.tdclzw" bs=1 seek=12 count=1 conv=notrunc 2>/dev/null
if "$CLI" verify "$WORK/badhdr.tdclzw" 2>"$WORK/err1.txt"; then
  echo "verify accepted a damaged header" >&2; exit 1
fi
grep -q "FAILED" "$WORK/err1.txt"

# Damaged payload byte -> chunk CRC (with the chunk index).
cp "$WORK/c.tdclzw" "$WORK/badpay.tdclzw"
SIZE=$(wc -c < "$WORK/badpay.tdclzw")
printf '\377' | dd of="$WORK/badpay.tdclzw" bs=1 seek=$((SIZE - 3)) count=1 conv=notrunc 2>/dev/null
if "$CLI" verify "$WORK/badpay.tdclzw" 2>"$WORK/err2.txt"; then
  echo "verify accepted a damaged payload" >&2; exit 1
fi
grep -q "FAILED" "$WORK/err2.txt"
grep -q "chunk" "$WORK/err2.txt"

# Truncated download -> truncated payload, reported as such.
head -c $((SIZE - 2)) "$WORK/c.tdclzw" > "$WORK/trunc.tdclzw"
if "$CLI" verify "$WORK/trunc.tdclzw" 2>"$WORK/err3.txt"; then
  echo "verify accepted a truncated file" >&2; exit 1
fi
grep -q "FAILED" "$WORK/err3.txt"
if "$CLI" decompress "$WORK/trunc.tdclzw" "$WORK/nope.tests" 2>/dev/null; then
  echo "decompress accepted a truncated file" >&2; exit 1
fi

# Netlist format round trip: .bench -> .v -> .bench, stats at each step.
cat > "$WORK/mini.bench" <<'EOF'
INPUT(a)
INPUT(b)
OUTPUT(y)
f = DFF(w)
w = NAND(a, f)
y = XOR(w, b)
EOF
"$CLI" stats "$WORK/mini.bench" | grep -q "scan vector width 3"
"$CLI" convert "$WORK/mini.bench" "$WORK/mini.v"
grep -q "module" "$WORK/mini.v"
"$CLI" convert "$WORK/mini.v" "$WORK/mini2.bench"
"$CLI" stats "$WORK/mini2.bench" | grep -q "scan vector width 3"

# Variable-width image round trip, unchunked container.
"$CLI" compress "$WORK/c.tests" "$WORK/cv.tdclzw" --dict 256 --variable --chunk-bytes 0
"$CLI" inspect "$WORK/cv.tdclzw" | grep -q "variable-width"
"$CLI" inspect "$WORK/cv.tdclzw" | grep -q "unchunked"
"$CLI" verify "$WORK/cv.tdclzw" | grep -q "OK"

# Unknown flags are rejected up front.
if "$CLI" compress "$WORK/c.tests" "$WORK/x.tdclzw" --bogus 2>/dev/null; then
  echo "compress accepted an unknown flag" >&2; exit 1
fi

# Multi-input compress (--out-dir) and multi-file verify, parallel workers.
cp "$WORK/c.tests" "$WORK/d.tests"
"$CLI" compress "$WORK/c.tests" "$WORK/d.tests" --out-dir "$WORK/multi" --dict 256 --jobs 2
"$CLI" verify "$WORK/multi/c.tdclzw" "$WORK/multi/d.tdclzw" --jobs 2 > "$WORK/verify.txt"
test "$(grep -c OK "$WORK/verify.txt")" = 2
if "$CLI" verify "$WORK/multi/c.tdclzw" "$WORK/trunc.tdclzw" 2>/dev/null; then
  echo "multi-verify ignored a bad file" >&2; exit 1
fi

# Batch engine end to end: manifest -> verified containers, deterministic
# report for any worker count, metrics snapshot, failure isolation.
cat > "$WORK/batch.manifest" <<EOF
version 1
job name=a input=$WORK/c.tests dict=256 char=7 entry=63 tiebreak=first container=2 out=a.tdclzw
job name=b input=$WORK/c.tests dict=256 char=7 entry=63 tiebreak=lookahead container=1 out=b.tdclzw
job name=c input=$WORK/c.tests dict=256 char=7 entry=63 xassign=zero variable out=c.tdclzw
EOF
"$CLI" batch "$WORK/batch.manifest" --out-dir "$WORK/batch1" --jobs 1 --metrics "$WORK/m.json" > "$WORK/batch1.txt"
"$CLI" batch "$WORK/batch.manifest" --out-dir "$WORK/batch4" --jobs 4 > "$WORK/batch4.txt"
cmp "$WORK/batch1/a.tdclzw" "$WORK/batch4/a.tdclzw"
cmp "$WORK/batch1/b.tdclzw" "$WORK/batch4/b.tdclzw"
cmp "$WORK/batch1/c.tdclzw" "$WORK/batch4/c.tdclzw"
"$CLI" verify "$WORK/batch1/a.tdclzw" "$WORK/batch1/b.tdclzw" "$WORK/batch1/c.tdclzw" | grep -c OK | grep -q 3
grep -q '"counters"' "$WORK/m.json"
grep -q '"engine.ok": 3' "$WORK/m.json"

# A bad job fails that job (nonzero exit) without sinking the others.
cat > "$WORK/bad.manifest" <<EOF
version 1
job name=good input=$WORK/c.tests dict=256 out=good.tdclzw
job name=bad input=$WORK/missing.tests dict=256 out=bad.tdclzw
EOF
if "$CLI" batch "$WORK/bad.manifest" --out-dir "$WORK/batchbad" > "$WORK/bad.txt"; then
  echo "batch with a failed job exited 0" >&2; exit 1
fi
grep -q "FAILED" "$WORK/bad.txt"
"$CLI" verify "$WORK/batchbad/good.tdclzw" | grep -q "OK"

# Manifest validation happens before anything runs.
printf 'version 1\njob name=x dict=256\n' > "$WORK/invalid.manifest"
if "$CLI" batch "$WORK/invalid.manifest" 2>"$WORK/invalid.txt"; then
  echo "batch accepted an invalid manifest" >&2; exit 1
fi
grep -q "line 2" "$WORK/invalid.txt"

# Telemetry stats surface: per-stream JSON, byte-deterministic across runs.
"$CLI" stats "$WORK/c.tests" --dict 256 --out "$WORK/s1.json"
"$CLI" stats "$WORK/c.tests" --dict 256 --out "$WORK/s2.json"
cmp "$WORK/s1.json" "$WORK/s2.json"
grep -q '"probes_fast"' "$WORK/s1.json"
grep -q '"x_bits_matched"' "$WORK/s1.json"
grep -q '"decoder"' "$WORK/s1.json"
# Stats on a container decodes it and reports the decoder's view.
"$CLI" stats "$WORK/c.tdclzw" | grep -q '"codes_consumed"'
"$CLI" stats "$WORK/c.tdclzw" | grep -q '"container"'
# A numeric flag takes plain decimal digits that fit 32 bits: a sign or a
# value past 2^32 - 1 is refused, never wrapped (4294967552 would run as
# N = 256).
for VALUE in 4294967552 +256 -1; do
  if "$CLI" stats "$WORK/c.tests" --dict "$VALUE" >/dev/null 2>"$WORK/num.txt"; then
    echo "stats accepted --dict $VALUE" >&2; exit 1
  fi
  grep -qF -- "--dict: expected an unsigned integer, got '$VALUE'" "$WORK/num.txt"
done
# --jobs shares the parser: 4294967297 would run as one worker.
for VALUE in 4294967297 +2; do
  if "$CLI" verify "$WORK/c.tdclzw" --jobs "$VALUE" >/dev/null 2>"$WORK/num.txt"; then
    echo "verify accepted --jobs $VALUE" >&2; exit 1
  fi
  grep -qF -- "--jobs: expected a positive integer, got '$VALUE'" "$WORK/num.txt"
done
# A millisecond flag held in an int stops at INT_MAX (4294967295 would be a
# -1 poll timeout, which waits forever); serve refuses it before the socket
# opens.
if "$CLI" serve "$WORK/never.sock" --io-timeout-ms 4294967295 2>"$WORK/num.txt"; then
  echo "serve accepted --io-timeout-ms 4294967295" >&2; exit 1
fi
grep -qF -- "--io-timeout-ms: expected an unsigned integer up to 2147483647" "$WORK/num.txt"
test ! -e "$WORK/never.sock"
# wave's clock-ratio argument is read the same way (4294967297 ran at 1x).
for VALUE in 4294967297 +4; do
  if "$CLI" wave "$WORK/c.tdclzw" "$WORK/bad.vcd" "$VALUE" >/dev/null 2>"$WORK/num.txt"; then
    echo "wave accepted clock ratio $VALUE" >&2; exit 1
  fi
  grep -qF -- "clock ratio: expected an unsigned integer, got '$VALUE'" "$WORK/num.txt"
done
# A clock ratio of 0 (tester cycles divide by it) gets the same refusal,
# exit 1, and no waveform is written.
STATUS=0
"$CLI" wave "$WORK/c.tdclzw" "$WORK/k0.vcd" 0 >/dev/null 2>"$WORK/num.txt" || STATUS=$?
test "$STATUS" -eq 1
grep -qF -- "clock ratio: expected an unsigned integer, got '0'" "$WORK/num.txt"
test ! -e "$WORK/k0.vcd"

# compress --stats emits the same telemetry alongside the container, and the
# multi-input form is byte-identical for any --jobs (input order, not
# completion order).
"$CLI" compress "$WORK/c.tests" "$WORK/cs.tdclzw" --dict 256 --stats "$WORK/cs1.json"
grep -q '"encoder"' "$WORK/cs1.json"
"$CLI" compress "$WORK/c.tests" "$WORK/d.tests" --out-dir "$WORK/multi2" \
  --dict 256 --jobs 1 --stats "$WORK/ms1.json"
"$CLI" compress "$WORK/c.tests" "$WORK/d.tests" --out-dir "$WORK/multi3" \
  --dict 256 --jobs 4 --stats "$WORK/ms4.json"
cmp "$WORK/ms1.json" "$WORK/ms4.json"

# Trace spans: --trace writes a Chrome trace_event JSON with the codec spans;
# $TDC_TRACE is the env-var spelling of the same switch.
"$CLI" compress "$WORK/c.tests" "$WORK/ct.tdclzw" --dict 256 --trace "$WORK/t1.json"
grep -q '"traceEvents"' "$WORK/t1.json"
grep -q '"lzw.encode"' "$WORK/t1.json"
TDC_TRACE="$WORK/t2.json" "$CLI" verify "$WORK/c.tdclzw" | grep -q "OK"
grep -q '"lzw.decode"' "$WORK/t2.json"

# inspect summarizes the chunk payload distribution via the obs histogram.
"$CLI" inspect "$WORK/c.tdclzw" | grep -q "chunk payload bytes:"
"$CLI" inspect "$WORK/c.tdclzw" | grep "chunk payload bytes:" | grep -q "p95="

# Multi-codec selection: --codec writes a v3 container whose records route
# through the codec registry; inspect names the per-chunk picks, verify and
# decompress handle v3, and the decompressed stream matches the pure-LZW one.
"$CLI" compress "$WORK/c.tests" "$WORK/ca.tdclzw" --codec auto
"$CLI" inspect "$WORK/ca.tdclzw" | grep -q "TDCLZW2 v3 multi-codec"
"$CLI" inspect "$WORK/ca.tdclzw" | grep -q "chunk codecs:"
"$CLI" verify "$WORK/ca.tdclzw" | grep -q "OK"
# The expansion is fully specified and byte-deterministic (the X binding may
# differ from the pure-LZW run — both are valid covers of the same cubes).
"$CLI" decompress "$WORK/ca.tdclzw" "$WORK/fullauto.tests"
"$CLI" inspect "$WORK/fullauto.tests" | grep -q "0.0% don't-cares"
"$CLI" decompress "$WORK/ca.tdclzw" "$WORK/fullauto2.tests"
cmp "$WORK/fullauto.tests" "$WORK/fullauto2.tests"

# Forced backend + fine chunking, plus per-codec accounting in the stats JSON.
"$CLI" compress "$WORK/c.tests" "$WORK/cr.tdclzw" --codec race --chunk-trits 512 \
  --stats "$WORK/mc.json"
grep -q '"codec_mode": "race"' "$WORK/mc.json"
grep -q '"per_codec"' "$WORK/mc.json"
"$CLI" stats "$WORK/cr.tdclzw" | grep -q '"per_codec"'
"$CLI" verify "$WORK/cr.tdclzw" | grep -q "OK"
"$CLI" decompress "$WORK/cr.tdclzw" "$WORK/fullrace.tests"
"$CLI" inspect "$WORK/fullrace.tests" | grep -q "0.0% don't-cares"
# inspect counts a v3 image's records as records, as verify does.
RECORDS=$("$CLI" verify "$WORK/cr.tdclzw" | sed -n 's/.*; \([0-9]*\) records decode.*/\1/p')
test -n "$RECORDS"
"$CLI" inspect "$WORK/cr.tdclzw" | grep -q ", $RECORDS records, "
if "$CLI" inspect "$WORK/cr.tdclzw" | grep -q " codes, "; then
  echo "inspect counts v3 records as codes" >&2; exit 1
fi

# A corrupted record payload byte in a v3 image is detected, never decoded.
cp "$WORK/ca.tdclzw" "$WORK/badrec.tdclzw"
SIZE3=$(wc -c < "$WORK/badrec.tdclzw")
printf '\377' | dd of="$WORK/badrec.tdclzw" bs=1 seek=$((SIZE3 - 5)) count=1 conv=notrunc 2>/dev/null
if "$CLI" verify "$WORK/badrec.tdclzw" 2>"$WORK/err4.txt"; then
  echo "verify accepted a damaged v3 record" >&2; exit 1
fi
grep -q "FAILED" "$WORK/err4.txt"

# --codec conflicts with the v1/v2 container knobs and bad tokens fail fast.
if "$CLI" compress "$WORK/c.tests" "$WORK/x.tdclzw" --codec auto --v1 2>/dev/null; then
  echo "compress accepted --codec with --v1" >&2; exit 1
fi
if "$CLI" compress "$WORK/c.tests" "$WORK/x.tdclzw" --codec bogus 2>/dev/null; then
  echo "compress accepted an unknown codec" >&2; exit 1
fi
# A spec is refused before anything is encoded, with the manifest's typed
# message (a too-small chunk is not a contract violation mid-write).
if "$CLI" compress "$WORK/c.tests" "$WORK/x.tdclzw" --chunk-bytes 10 2>"$WORK/chunk10.txt"; then
  echo "compress accepted --chunk-bytes 10" >&2; exit 1
fi
grep -q "ConfigMismatch.*chunk must be 0 or >= 64" "$WORK/chunk10.txt"

# Batch jobs with codec= are deterministic for any worker count too.
cat > "$WORK/mc.manifest" <<EOF
version 1
job name=pure input=$WORK/c.tests dict=256 out=pure.tdclzw
job name=auto input=$WORK/c.tests dict=256 codec=auto out=auto.tdclzw
job name=race input=$WORK/c.tests dict=256 codec=race chunk_trits=512 out=race.tdclzw
EOF
"$CLI" batch "$WORK/mc.manifest" --out-dir "$WORK/mc1" --jobs 1 > "$WORK/mc1.txt"
"$CLI" batch "$WORK/mc.manifest" --out-dir "$WORK/mc4" --jobs 4 > "$WORK/mc4.txt"
cmp "$WORK/mc1/auto.tdclzw" "$WORK/mc4/auto.tdclzw"
cmp "$WORK/mc1/race.tdclzw" "$WORK/mc4/race.tdclzw"
grep -q "codec=auto" "$WORK/mc1.txt"
"$CLI" verify "$WORK/mc1/auto.tdclzw" "$WORK/mc1/race.tdclzw" | grep -c OK | grep -q 2
"$CLI" decompress "$WORK/mc1/auto.tdclzw" "$WORK/mcfull.tests"
"$CLI" inspect "$WORK/mcfull.tests" | grep -q "0.0% don't-cares"

# tdcd service daemon: background serve, client round trips byte-identical
# to the offline CLI, live stats, graceful SIGTERM drain with exit code 0.
SOCK="$WORK/tdcd.sock"
"$CLI" serve "$SOCK" --jobs 2 --log-level debug \
  --metrics-log "$WORK/metrics.ndjson" --metrics-interval-ms 100 \
  > "$WORK/serve.log" 2>&1 &
SERVE_PID=$!
# The client retries the connect (--connect-wait-ms), so no sleep needed.
"$CLI" client "$SOCK" ping | grep -q "pong"

# Daemon compress with default knobs == offline compress with default knobs.
"$CLI" compress "$WORK/c.tests" "$WORK/offline.tdclzw"
"$CLI" client "$SOCK" compress "$WORK/c.tests" "$WORK/served.tdclzw"
cmp "$WORK/offline.tdclzw" "$WORK/served.tdclzw"
# Forwarded knobs reach the engine: --dict 256 matches the offline run too.
"$CLI" client "$SOCK" compress "$WORK/c.tests" "$WORK/served256.tdclzw" --dict 256
cmp "$WORK/c.tdclzw" "$WORK/served256.tdclzw"

# Decompress / verify / inspect round trip through the socket.
"$CLI" client "$SOCK" decompress "$WORK/served.tdclzw" "$WORK/served.tests"
"$CLI" decompress "$WORK/offline.tdclzw" "$WORK/offline.tests"
cmp "$WORK/offline.tests" "$WORK/served.tests"
"$CLI" client "$SOCK" verify "$WORK/served.tdclzw" | grep -q "OK"
"$CLI" client "$SOCK" inspect "$WORK/served.tdclzw" | grep -q "TDCLZW2"

# stats serves the live registry: request counters, the runner's jobs and
# in-flight occupancy, the other gauges and the top-K slowlog.
"$CLI" client "$SOCK" stats --out "$WORK/daemon.json"
grep -q '"serve.compress.requests": 2' "$WORK/daemon.json"
grep -q '"runner.jobs"' "$WORK/daemon.json"
grep -q '"runner.in_flight"' "$WORK/daemon.json"
grep -q '"process.rss_bytes"' "$WORK/daemon.json"
grep -q '"slowlog"' "$WORK/daemon.json"
grep -q '"op": "compress"' "$WORK/daemon.json"

# The same registry in OpenMetrics text, via both spellings of the scrape.
"$CLI" client "$SOCK" stats --openmetrics --out "$WORK/metrics.txt"
grep -q '^tdc_serve_compress_requests_total 2$' "$WORK/metrics.txt"
grep -q '^# TYPE tdc_runner_in_flight gauge$' "$WORK/metrics.txt"
grep -q '^# EOF$' "$WORK/metrics.txt"
"$CLI" stats "$SOCK" --openmetrics | grep -q '^tdc_serve_ping_requests_total '
# Follow mode: two samples land plus a live request-rate comment line.
"$CLI" stats "$SOCK" --openmetrics --follow 0.2 --samples 2 \
  > "$WORK/follow.txt"
grep -c '^# EOF$' "$WORK/follow.txt" | grep -q 2
grep -q '^# serve.requests ' "$WORK/follow.txt"

# A hostile payload comes back as a typed error frame, not a dead daemon.
if "$CLI" client "$SOCK" verify "$WORK/trunc.tdclzw" 2>"$WORK/serve_err.txt"; then
  echo "daemon verify accepted a truncated container" >&2; exit 1
fi
grep -q "Truncated" "$WORK/serve_err.txt"
# The client's error line names the kind once (the wire carries the message
# and the positions, not a pre-rendered describe()).
test "$(grep -o '\[[A-Za-z]*\]' "$WORK/serve_err.txt" | wc -l)" = 1
"$CLI" client "$SOCK" ping | grep -q "pong"

# The daemon refuses every spec offline compress refuses, with the same
# message, and encodes nothing for it.
for FLAGS in "--codec auto --v1" "--codec auto --chunk-bytes 128" \
    "--chunk-trits 512" "--chunk-bytes 10"; do
  # shellcheck disable=SC2086  # FLAGS is a word list on purpose
  if "$CLI" compress "$WORK/c.tests" "$WORK/x.tdclzw" $FLAGS 2>"$WORK/off.txt"; then
    echo "compress accepted $FLAGS" >&2; exit 1
  fi
  # shellcheck disable=SC2086
  if "$CLI" client "$SOCK" compress "$WORK/c.tests" "$WORK/x.tdclzw" $FLAGS \
      2>"$WORK/srv.txt"; then
    echo "daemon compress accepted $FLAGS" >&2; exit 1
  fi
  grep -q "ConfigMismatch" "$WORK/off.txt"
  grep -qF "$(cat "$WORK/off.txt")" "$WORK/srv.txt"
done
# Compress flags on another op are refused, not dropped.
if "$CLI" client "$SOCK" decompress "$WORK/served.tdclzw" "$WORK/x.tests" --dict 256 \
    2>/dev/null; then
  echo "client decompress accepted a compress flag" >&2; exit 1
fi

# SIGTERM drains and exits 0; the socket file is gone afterwards, and the
# structured log recorded the full lifecycle as JSON lines.
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"   # set -e: a nonzero daemon exit code fails the test here
test ! -e "$SOCK"
grep -q '"event": "server.listen"' "$WORK/serve.log"
grep -q '"event": "conn.accept"' "$WORK/serve.log"
grep -q '"event": "server.stop"' "$WORK/serve.log"

# The sampler left NDJSON snapshots behind: every line one JSON object, the
# final (post-stop) line with nothing left in flight after work did flow
# through the pool.
test -s "$WORK/metrics.ndjson"
grep -q '"ts_ms": ' "$WORK/metrics.ndjson"
tail -n 1 "$WORK/metrics.ndjson" \
  | grep -q '"runner.in_flight": {"value": 0, "peak": [1-9]'

echo "cli_test OK"
