#!/usr/bin/env sh
# One-shot verification gate: everything a PR must pass, in dependency order.
#
#   tools/run_checks.sh [extra ctest args...]
#
#   1. configure + build the default preset
#   2. ctest (the unit/integration tests + the storsim_lint fixture suite
#      + the StorsimLint.TreeIsClean gate)
#   3. storsim_lint --check over src/ bench/ tests/ tools/ examples/ (the
#      last two hold callers the unused-export rule counts; redundant with the ctest
#      gate, but run standalone so its report is printed even when ctest is
#      filtered down with extra args); also emits build/lint-report.json,
#      the --format=json report CI consumes
#   4. pipeline_throughput smoke at --scale=0.05: asserts the fast log path
#      and the legacy baseline stay byte-identical (speedups are measured at
#      full scale separately; see docs/performance.md)
#   5. store round-trip at full scale: store_bench simulates the paper-scale
#      fleet, serializes it, and asserts the mmap+query rerun reproduces the
#      AFR breakdown bit for bit (docs/STORE.md); plus a corruption smoke —
#      a truncated and a bit-flipped store must be rejected by the CLI
#   6. observability gate (docs/OBSERVABILITY.md): a full-scale analyze with
#      --metrics --trace --manifest must print byte-identical stdout to the
#      plain run, the manifest and trace must be valid JSON, and turning the
#      obs stack on must cost <2% wall time on the scale-1.0 log pipeline
#      (plain and obs runs alternate in ABBA order, so host-load swings hit
#      both arms, and the two arms' minima are compared; the committed
#      BENCH_pipeline.json numbers are the cross-machine reference)
#   7. sharded store gate (docs/STORE.md): a full-scale `store build
#      --max-rss-mb 256` must fit the budget the monolithic writer exceeds
#      (~430-500 MiB on this fleet), and `analyze --input <shard-dir>` (afr,
#      burstiness, correlation, lifetime) plus a grouped and a windowed
#      `store query` must print byte-identical output to the single-file
#      store from step 5
#   8. kernel identity gate (docs/STORE.md): a second build configured with
#      -DSTORSUBSIM_SIMD=OFF (scalar decode kernels, slice-by-8 CRC32) must
#      match the default build — whose crc32 folds with PCLMULQDQ where the
#      CPU has it — on the reader and the writer: byte-identical full-scale
#      analyze reports, a cmp-identical scale-0.25 `store build`, and the
#      same stderr rejecting the step-5 bit-flipped store; its binary must
#      carry no pclmul instruction. The wide kernels are an optimisation,
#      never a semantic change
#   9. storsimd gate (docs/SERVE.md): a real `storsubsim serve` daemon over
#      the step-5 store answers parallel `storsubsim client` calls byte-
#      identically to the offline path, the serve_bench QPS ladder clears a
#      conservative floor with zero mismatches, a 100k-connection soak
#      leaves the daemon alive with flat threads, RSS and VmSize, a rebuild
#      of the served store in place leaves it alive and answering the old
#      generation's bytes, a `store build` killed with SIGKILL leaves the
#      previous store byte-identical, and SIGTERM drains cleanly (exit 0,
#      socket unlinked)
#  10. clang-tidy over src/ when available (the container may not ship it;
#      the curated profile lives in .clang-tidy)
#  11. replication gate (docs/REPLICATION.md): `storsubsim replicate` at
#      --threads 1 and 4 must write byte-identical STORREP1 tables and
#      reports, `analyze --replicates` must re-render the table byte for
#      byte without re-simulating, and a ci_rel run must stop before the
#      fixed budget with its provenance manifest recording why
#  12. store-build thread invariance (docs/performance.md): `store build
#      --scale 0.25` at --threads 1, 3 and 4 must write cmp-identical files
#      (3 threads cut the fleet into 3 chunks of unequal size), and a --shards 4
#      build's shard files must be identical at 1 and 4 threads
#  13. text-log ingest identity (docs/performance.md): every `analyze --logs`
#      report (and events --csv) over scale-0.25 logs is identical at
#      --threads 1 and 4 and to the same run's store; `store build --logs`
#      and `predict` (--precursors logs) are identical at 1 and 4 threads
#
# Sanitizer passes are heavier and live in tools/run_sanitizer.sh.
set -eu

cd "$(dirname "$0")/.."

echo "== [1/13] configure + build =="
cmake --preset default
cmake --build --preset default -j "$(nproc)"

echo "== [2/13] ctest =="
ctest --test-dir build --output-on-failure -j "$(nproc)" "$@"

echo "== [3/13] storsim_lint =="
# Emit the machine-readable report first (it must exist even when the gate
# below fails, so CI can surface the findings), then run the human gate.
./build/tools/storsim_lint --format=json --root . src bench tests tools examples \
  > build/lint-report.json || true
./build/tools/storsim_lint --check --root . src bench tests tools examples
echo "machine-readable report: build/lint-report.json"

echo "== [4/13] pipeline_throughput smoke =="
./build/bench/pipeline_throughput --scale=0.05 --repeat=1 \
  --out=build/BENCH_pipeline_smoke.json

echo "== [5/13] store round-trip (full scale) + corruption smoke =="
./build/bench/store_bench --scale=1.0 --repeat=1 \
  --store=build/BENCH_checks.store --out=build/BENCH_store_checks.json
# Corrupt stores must be rejected, never crash: truncate one copy, flip a
# byte in another.
head -c 1000 build/BENCH_checks.store > build/BENCH_checks_truncated.store
cp build/BENCH_checks.store build/BENCH_checks_flipped.store
printf '\377' | dd of=build/BENCH_checks_flipped.store bs=1 seek=200 \
  conv=notrunc status=none
for broken in build/BENCH_checks_truncated.store build/BENCH_checks_flipped.store; do
  if ./build/tools/storsubsim store stats --store "$broken" > /dev/null 2>&1; then
    echo "FAIL: corrupted store $broken was accepted"
    exit 1
  fi
done
echo "corrupted stores rejected with typed errors"

echo "== [6/13] observability: byte identity + manifest + overhead =="
# Byte identity at full scale: the store built in step 5 feeds the same
# analyze invocation with the obs stack off and fully on. --input also
# exercises the STORCOL1 magic sniffing path.
./build/tools/storsubsim analyze --store build/BENCH_checks.store \
  --report afr > build/CHECK_obs_plain.txt
./build/tools/storsubsim analyze --input build/BENCH_checks.store \
  --report afr --metrics --trace build/CHECK_obs.trace.json \
  --manifest build/CHECK_obs.manifest.json \
  > build/CHECK_obs_instrumented.txt 2> build/CHECK_obs_metrics.txt
cmp build/CHECK_obs_plain.txt build/CHECK_obs_instrumented.txt
echo "analysis output byte-identical with --metrics --trace --manifest"

# The emitted artifacts must be valid JSON with the expected markers.
if command -v python3 > /dev/null 2>&1; then
  python3 - <<'PYEOF'
import json
manifest = json.load(open("build/CHECK_obs.manifest.json"))
assert manifest["storsubsim_manifest"] == 1, manifest
assert manifest["tool"].startswith("storsubsim"), manifest["tool"]
assert "metrics" in manifest and isinstance(manifest["metrics"], list)
trace = json.load(open("build/CHECK_obs.trace.json"))
assert isinstance(trace["traceEvents"], list) and trace["traceEvents"]
assert all(e["ph"] == "X" for e in trace["traceEvents"])
print("manifest + trace JSON valid (%d trace events)" % len(trace["traceEvents"]))
PYEOF
else
  grep -q '"storsubsim_manifest"' build/CHECK_obs.manifest.json
  grep -q '"traceEvents"' build/CHECK_obs.trace.json
  echo "python3 unavailable; JSON markers grep-checked only"
fi

# Overhead gate: the scale-1.0 log pipeline with tracing + metrics on must
# stay within 2% of the plain run. Plain and obs reps alternate in one
# harness, so a load swing on this shared host lands on both arms, and the
# arms' minima are compared (the committed BENCH_pipeline.json is a different
# box, so it is reference only).
if command -v python3 > /dev/null 2>&1; then
  python3 - <<'PYEOF'
import json, subprocess
BENCH = "./build/bench/pipeline_throughput"
ARMS = {
    "plain": ["--out=build/BENCH_pipeline_check.json"],
    "obs": ["--metrics", "--trace=build/BENCH_pipeline_check.trace.json",
            "--out=build/BENCH_pipeline_check_obs.json"],
}
def wall(path):
    fast = json.load(open(path))["fast"]
    return fast["emit_seconds"] + fast["parse_seconds"] + fast["classify_seconds"]
walls = {arm: [] for arm in ARMS}
for rep in range(6):
    # ABBA order: neither arm always runs first.
    for arm in ("plain", "obs") if rep % 2 == 0 else ("obs", "plain"):
        flags = ARMS[arm]
        subprocess.run([BENCH, "--scale=1.0", "--repeat=1"] + flags, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        walls[arm].append(wall(flags[-1].split("=", 1)[1]))
plain, obs = min(walls["plain"]), min(walls["obs"])
overhead = obs / plain - 1.0
print("obs overhead on the fast path: %+.2f%% (plain %.3fs, obs %.3fs; min of 6 alternated reps)"
      % (overhead * 100.0, plain, obs))
assert overhead < 0.02, "obs stack costs more than 2%% wall time (%.2f%%)" % (overhead * 100.0)
PYEOF
else
  ./build/bench/pipeline_throughput --scale=1.0 --repeat=1 --metrics \
    --trace=build/BENCH_pipeline_check.trace.json \
    --out=build/BENCH_pipeline_check_obs.json > /dev/null 2>&1
  echo "python3 unavailable; skipping the <2% overhead comparison"
fi

echo "== [7/13] sharded store: bounded-memory build + merged-answer identity =="
# Full-scale sharded build under a budget the monolithic writer exceeds
# (step 5's single-file build peaks around 430-500 MiB on this fleet). The build
# records its own peak RSS in the directory's build.manifest.json.
./build/tools/storsubsim store build --out build/BENCH_checks.shards \
  --scale 1.0 --max-rss-mb 256
# The merged answers must be byte-identical to the single-file store from
# step 5 (same seed/scale): every report, including lifetime (whose
# initial-then-replacement disk order is the subtlest part of the id
# rebasing), plus a grouped and a windowed store query.
for report in afr burstiness correlation lifetime; do
  ./build/tools/storsubsim analyze --input build/BENCH_checks.store \
    --report "$report" > "build/CHECK_shards_mono_$report.txt"
  ./build/tools/storsubsim analyze --input build/BENCH_checks.shards \
    --report "$report" > "build/CHECK_shards_dir_$report.txt"
  cmp "build/CHECK_shards_mono_$report.txt" "build/CHECK_shards_dir_$report.txt"
done
query_identity() {  # <name> <store query flags...>
  name=$1
  shift
  ./build/tools/storsubsim store query --store build/BENCH_checks.store "$@" \
    > "build/CHECK_shards_mono_query_$name.txt"
  ./build/tools/storsubsim store query --store build/BENCH_checks.shards "$@" \
    > "build/CHECK_shards_dir_query_$name.txt"
  cmp "build/CHECK_shards_mono_query_$name.txt" "build/CHECK_shards_dir_query_$name.txt"
}
query_identity grouped --group-by class
query_identity windowed --type disk --from-days 30 --to-days 300 --group-by type
echo "sharded answers byte-identical to the single-file store (afr, burstiness, correlation, lifetime, grouped + windowed query)"
# RSS-budget gate: the sharded build must honour --max-rss-mb, and must use
# far less memory than the monolithic path (recorded by step 5's bench).
if command -v python3 > /dev/null 2>&1; then
  python3 - <<'PYEOF'
import json
build = json.load(open("build/BENCH_checks.shards/build.manifest.json"))
sharded_peak = build["numbers"]["peak_rss_bytes"]
shards = int(build["numbers"]["shards"])
mono = json.load(open("build/BENCH_store_checks.json"))
mono_peak = mono["peak_rss_bytes"]
budget = 256 * 1024 * 1024
print("sharded build: %d shards, peak RSS %.0f MiB (budget 256 MiB); "
      "monolithic pipeline peaked at %.0f MiB"
      % (shards, sharded_peak / 2**20, mono_peak / 2**20))
assert shards > 1, "budget did not force a multi-shard build"
assert sharded_peak <= budget, "sharded build exceeded --max-rss-mb"
assert sharded_peak < mono_peak / 2, "sharded build saved too little memory"
PYEOF
else
  echo "python3 unavailable; skipping the RSS-budget assertion"
fi

echo "== [8/13] kernel identity: scalar build vs SIMD build =="
# A scalar-only build (-DSTORSUBSIM_SIMD=OFF) must answer the full-scale
# analyze byte for byte like the default build: the wide kernels may only
# change speed, never output. Reuses the step-5 store so both binaries read
# the exact same bytes.
cmake -S . -B build-scalar -DSTORSUBSIM_SIMD=OFF \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
cmake --build build-scalar --target storsubsim_cli -j "$(nproc)" > /dev/null
for report in afr burstiness correlation; do
  ./build/tools/storsubsim analyze --input build/BENCH_checks.store \
    --report "$report" > "build/CHECK_simd_$report.txt"
  ./build-scalar/tools/storsubsim analyze --input build/BENCH_checks.store \
    --report "$report" > "build/CHECK_scalar_$report.txt"
  cmp "build/CHECK_simd_$report.txt" "build/CHECK_scalar_$report.txt"
done
echo "scalar-kernel build byte-identical to the SIMD build (afr, burstiness, correlation)"
# The writer checksums every column, its footer and its header with the same
# crc32, so both builds must write the same file ...
for variant in build build-scalar; do
  "./$variant/tools/storsubsim" store build --out "build/CHECK_kernels_$variant.store" \
    --scale 0.25 --seed 7 > /dev/null 2>&1
done
cmp build/CHECK_kernels_build.store build/CHECK_kernels_build-scalar.store
# ... and reject the step-5 bit-flipped store with the same error.
for variant in build build-scalar; do
  if "./$variant/tools/storsubsim" store stats --store build/BENCH_checks_flipped.store \
      > /dev/null 2> "build/CHECK_kernels_$variant.err"; then
    echo "FAIL: $variant accepted the bit-flipped store"
    exit 1
  fi
done
cmp build/CHECK_kernels_build.err build/CHECK_kernels_build-scalar.err
echo "store build cmp-identical and corruption rejected identically on both builds"
# The scalar build must carry no carry-less multiply at all; on x86-64 the
# default build must (it is what makes the count above meaningful).
if command -v objdump > /dev/null 2>&1; then
  scalar_clmul=$(objdump -d build-scalar/tools/storsubsim | grep -c pclmul || true)
  [ "$scalar_clmul" -eq 0 ] || {
    echo "FAIL: $scalar_clmul pclmul instructions in the scalar build"
    exit 1
  }
  if [ "$(uname -m)" = x86_64 ]; then
    default_clmul=$(objdump -d build/tools/storsubsim | grep -c pclmul || true)
    [ "$default_clmul" -gt 0 ] || { echo "FAIL: no pclmul in the default build"; exit 1; }
  fi
  echo "scalar build has no pclmul instruction"
else
  echo "objdump unavailable; pclmul instruction count skipped"
fi

echo "== [9/13] storsimd: daemon byte-identity + QPS floor + drain =="
# A real `storsubsim serve` daemon over the full-scale store from step 5,
# driven by parallel `storsubsim client` invocations: every endpoint must be
# byte-identical to the offline path, and SIGTERM must drain cleanly
# (exit 0, socket unlinked). See docs/SERVE.md.
SERVE_SOCK=build/CHECK_serve.sock
rm -f "$SERVE_SOCK"
./build/tools/storsubsim serve --input build/BENCH_checks.store \
  --socket "$SERVE_SOCK" > /dev/null 2>&1 &
SERVE_PID=$!
tries=0
while [ ! -S "$SERVE_SOCK" ] && [ "$tries" -lt 500 ]; do
  sleep 0.01
  tries=$((tries + 1))
done
[ -S "$SERVE_SOCK" ] || { echo "FAIL: daemon never bound $SERVE_SOCK"; exit 1; }
client_pids=""
for pair in afr:afr-total afr_by_class:afr tbf:burstiness \
            correlation:correlation lifetime:lifetime; do
  endpoint=${pair%%:*}
  report=${pair##*:}
  ./build/tools/storsubsim analyze --store build/BENCH_checks.store \
    --report "$report" > "build/CHECK_serve_offline_$endpoint.txt"
  ./build/tools/storsubsim client --socket "$SERVE_SOCK" \
    --endpoint "$endpoint" > "build/CHECK_serve_daemon_$endpoint.txt" &
  client_pids="$client_pids $!"
done
./build/tools/storsubsim store query --store build/BENCH_checks.store \
  --group-by class --csv > build/CHECK_serve_offline_query.txt
./build/tools/storsubsim client --socket "$SERVE_SOCK" --endpoint query \
  --group-by class --csv > build/CHECK_serve_daemon_query.txt &
client_pids="$client_pids $!"
for pid in $client_pids; do
  wait "$pid"
done
for endpoint in afr afr_by_class tbf correlation lifetime query; do
  cmp "build/CHECK_serve_offline_$endpoint.txt" \
    "build/CHECK_serve_daemon_$endpoint.txt"
done
echo "daemon answers byte-identical to offline (5 endpoints + grouped query)"
# Soak: 100k sequential one-request connections. The daemon must survive
# them with its thread count unchanged and its memory flat (RSS +16 MiB,
# VmSize +512 MiB at most: per-thread malloc arenas are a one-time cost).
if command -v python3 > /dev/null 2>&1; then
  python3 - "$SERVE_PID" "$SERVE_SOCK" <<'PYEOF'
import os, socket, struct, sys, time
pid, path = sys.argv[1], sys.argv[2]

def status():
    fields = {}
    with open("/proc/%s/status" % pid) as f:
        for line in f:
            key, _, value = line.partition(":")
            if key in ("VmSize", "VmRSS", "Threads"):
                fields[key] = int(value.split()[0])
    return fields

def recv_exact(s, n):
    data = b""
    while len(data) < n:
        chunk = s.recv(n - len(data))
        assert chunk, "daemon closed a soak connection early"
        data += chunk
    return data

body = b'{"endpoint":"stats"}'
frame = struct.pack("<I", len(body)) + body
before = status()
start = time.time()
for i in range(100000):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.connect(path)
    s.sendall(frame)
    reply = recv_exact(s, struct.unpack("<I", recv_exact(s, 4))[0])
    s.close()
    assert reply.startswith(b'{"ok":true'), "soak request %d failed: %r" % (i, reply[:200])
elapsed = time.time() - start
assert os.path.exists("/proc/%s" % pid), "daemon died during the soak"
after = status()
print("soak: 100000 connections in %.1f s; Threads %d -> %d, VmRSS %.1f -> %.1f MiB, "
      "VmSize %+.1f MiB" % (elapsed, before["Threads"], after["Threads"],
                            before["VmRSS"] / 1024.0, after["VmRSS"] / 1024.0,
                            (after["VmSize"] - before["VmSize"]) / 1024.0))
assert after["Threads"] == before["Threads"], "daemon thread count changed"
assert after["VmRSS"] - before["VmRSS"] <= 16 * 1024, "daemon RSS grew more than 16 MiB"
assert after["VmSize"] - before["VmSize"] <= 512 * 1024, "daemon VmSize grew more than 512 MiB"
PYEOF
else
  echo "python3 unavailable; 100k-connection soak skipped"
fi
# Rebuild the served store in place with another seed. Publication renames
# a new inode over the path, so the daemon's mapping keeps the old
# generation: it must stay alive and answer afr byte for byte as before (an
# in-place rewrite truncated the mapped file under it: SIGBUS).
./build/tools/storsubsim client --socket "$SERVE_SOCK" --endpoint afr \
  > build/CHECK_rebuild_before.txt
./build/tools/storsubsim store build --out build/BENCH_checks.store \
  --scale 1 --seed 20080227 > /dev/null
kill -0 "$SERVE_PID" 2> /dev/null || { echo "FAIL: daemon died in the rebuild"; exit 1; }
./build/tools/storsubsim client --socket "$SERVE_SOCK" --endpoint afr \
  > build/CHECK_rebuild_after.txt
cmp build/CHECK_rebuild_before.txt build/CHECK_rebuild_after.txt
echo "rebuild in place under the daemon: alive, afr byte-identical to the old generation"
# A build killed mid-run publishes nothing: the previous store stays byte
# for byte and still opens.
cp build/BENCH_checks.store build/CHECK_prev.store
./build/tools/storsubsim store build --out build/BENCH_checks.store \
  --scale 1 --seed 20080228 > /dev/null 2>&1 &
BUILD_PID=$!
sleep 0.3
kill -9 "$BUILD_PID" 2> /dev/null || true
wait "$BUILD_PID" 2> /dev/null || true
rm -f build/BENCH_checks.store.tmp.*
cmp build/CHECK_prev.store build/BENCH_checks.store
./build/tools/storsubsim store stats --store build/BENCH_checks.store > /dev/null
echo "kill -9 mid-build: previous store byte-identical and opens cleanly"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
[ ! -e "$SERVE_SOCK" ] || { echo "FAIL: $SERVE_SOCK leaked after drain"; exit 1; }
echo "SIGTERM drain clean (exit 0, socket unlinked)"
# QPS floor: the in-process ladder over the same store. The committed
# BENCH_serve.json holds this machine-independent reference; the floor here
# is deliberately conservative so slow CI boxes pass while a daemon that
# serializes everything (or deadlocks) fails.
./build/bench/serve_bench --store=build/BENCH_checks.store --requests=100 \
  --out=build/BENCH_serve_check.json > /dev/null
if command -v python3 > /dev/null 2>&1; then
  python3 - <<'PYEOF'
import json
doc = json.load(open("build/BENCH_serve_check.json"))
assert doc["mismatches"] == 0, "daemon served wrong bytes under load"
ladder = {r["clients"]: r for r in doc["ladder"]}
qps16 = ladder[16]["qps"]
print("serve QPS ladder: " + ", ".join(
    "%d clients -> %.0f qps (p99 %.0f us)" % (c, r["qps"], r["p99_us"])
    for c, r in sorted(ladder.items())))
assert qps16 >= 100.0, "16-client QPS %.0f below the 100 qps floor" % qps16
PYEOF
else
  grep -q '"mismatches": 0' build/BENCH_serve_check.json
  echo "python3 unavailable; QPS floor grep-checked for identity only"
fi

echo "== [10/13] clang-tidy =="
if command -v clang-tidy > /dev/null 2>&1; then
  cmake --preset default -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null
  # Lint the library sources; headers are pulled in via HeaderFilterRegex.
  find src -name '*.cc' -print0 | xargs -0 -n 8 -P "$(nproc)" \
    clang-tidy -p build --quiet
else
  echo "clang-tidy not installed; skipping (config: .clang-tidy)"
fi

echo "== [11/13] replication: thread-invariance + analyze --replicates + early stop =="
# The determinism contract on the Monte Carlo replicator: replicate seeds are
# keyed substreams of the root seed, so the table and the report must not
# depend on the thread count (docs/REPLICATION.md).
./build/tools/storsubsim replicate --out build/CHECK_t1.reps \
  --scale 0.02 --seed 11 --max-replicates 8 --min-replicates 4 --batch 4 \
  --threads 1 > build/CHECK_replicate_t1.txt 2> /dev/null
./build/tools/storsubsim replicate --out build/CHECK_t4.reps \
  --scale 0.02 --seed 11 --max-replicates 8 --min-replicates 4 --batch 4 \
  --threads 4 > build/CHECK_replicate_t4.txt 2> /dev/null
cmp build/CHECK_t1.reps build/CHECK_t4.reps
cmp build/CHECK_replicate_t1.txt build/CHECK_replicate_t4.txt
echo "replicate tables + reports byte-identical at --threads 1 and 4"
# `analyze --replicates` answers from the stored table, no re-simulation.
./build/tools/storsubsim analyze --replicates build/CHECK_t1.reps \
  > build/CHECK_replicate_analyze.txt 2> /dev/null
cmp build/CHECK_replicate_t1.txt build/CHECK_replicate_analyze.txt
echo "analyze --replicates re-renders the stored table byte for byte"
# Sequential stopping must beat the fixed budget at a loose target, and the
# provenance manifest must say so.
./build/tools/storsubsim replicate --out build/CHECK_earlystop.reps \
  --scale 0.02 --seed 11 --max-replicates 24 --min-replicates 4 --batch 4 \
  --ci-rel 0.5 --threads 1 > /dev/null 2>&1
if command -v python3 > /dev/null 2>&1; then
  python3 - <<'PYEOF'
import json
manifest = json.load(open("build/CHECK_earlystop.reps.manifest.json"))
info = manifest["info"]
numbers = manifest["numbers"]
replicates = int(numbers["replicates"])
assert info["stop_reason"] == "converged", info
assert info["seed_stream"] == "replicate", info
assert numbers["converged_statistics"] >= 1, numbers
assert 0 < numbers["min_stopped_at"] < 24, numbers
assert replicates < 24, "sequential stopping did not beat the fixed budget"
print("sequential stopping: %d/24 replicates (converged, %d statistics at target)"
      % (replicates, int(numbers["converged_statistics"])))
PYEOF
else
  grep -q '"stop_reason": "converged"' build/CHECK_earlystop.reps.manifest.json
  echo "python3 unavailable; early-stop manifest grep-checked only"
fi

echo "== [12/13] store build: byte identity across thread counts =="
for threads in 1 3 4; do
  ./build/tools/storsubsim store build --out "build/CHECK_build_t$threads.store" \
    --scale 0.25 --seed 7 --threads "$threads" > /dev/null 2>&1
done
cmp build/CHECK_build_t1.store build/CHECK_build_t3.store
cmp build/CHECK_build_t1.store build/CHECK_build_t4.store
for threads in 1 4; do
  rm -rf "build/CHECK_build_t$threads.shards"
  ./build/tools/storsubsim store build --out "build/CHECK_build_t$threads.shards" \
    --scale 0.25 --seed 7 --shards 4 --threads "$threads" > /dev/null 2>&1
done
for shard in build/CHECK_build_t1.shards/shard-*.store; do
  cmp "$shard" "build/CHECK_build_t4.shards/$(basename "$shard")"
done
echo "store files byte-identical at --threads 1, 3 and 4; shard files at 1 and 4"

echo "== [13/13] text-log ingest: byte identity across threads and backends =="
# $text and $report are split on purpose: each holds flags.
cli=./build/tools/storsubsim
text="--logs build/CHECK_text.log --snapshot build/CHECK_text.snap"
$cli simulate --scale 0.25 --seed 7 $text > /dev/null 2>&1
$cli store build --out build/CHECK_text_sim.store --scale 0.25 --seed 7 > /dev/null 2>&1
for report in afr afr-total burstiness correlation lifetime vulnerability events \
    "events --csv"; do
  $cli analyze $text --report $report --threads 1 > build/CHECK_text_t1.txt 2> /dev/null
  $cli analyze $text --report $report --threads 4 > build/CHECK_text_t4.txt 2> /dev/null
  $cli analyze --input build/CHECK_text_sim.store --report $report \
    > build/CHECK_text_store.txt 2> /dev/null
  cmp build/CHECK_text_t1.txt build/CHECK_text_t4.txt
  cmp build/CHECK_text_t1.txt build/CHECK_text_store.txt
done
echo "analyze --logs reports identical at --threads 1 and 4 and to the store"
for threads in 1 4; do
  $cli store build --out "build/CHECK_text_t$threads.store" $text --threads "$threads" \
    > /dev/null 2>&1
done
cmp build/CHECK_text_t1.store build/CHECK_text_t4.store
text="--logs build/CHECK_precursors.log --snapshot build/CHECK_precursors.snap"
$cli simulate --scale 0.05 --seed 7 --precursors $text > /dev/null 2>&1
$cli predict $text --threads 1 > build/CHECK_predict_t1.txt 2> /dev/null
$cli predict $text --threads 4 > build/CHECK_predict_t4.txt 2> /dev/null
cmp build/CHECK_predict_t1.txt build/CHECK_predict_t4.txt
echo "store build --logs and predict identical at --threads 1 and 4"

echo "All checks passed."
