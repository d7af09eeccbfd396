#!/usr/bin/env bash
# Tier-1 verification: configure, build (lz_obs is compiled with
# -Wall -Wextra -Werror, see src/obs/CMakeLists.txt), run the full test
# suite, then smoke-test the report/trace/profile artifact paths end to end.
set -euo pipefail

cd "$(dirname "$0")"

cmake -B build -G Ninja >/dev/null
cmake --build build
ctest --test-dir build --output-on-failure

# Repo benchmark self-test (perfbench/README.md): builds lzbench in Release
# and checks every workload's pinned simulated fingerprint, traced vs
# untraced agreement and span shares summing to 1, so a change that moves
# simulated work fails here, before any timing run.
python3 perfbench/run.py --test

# --json smoke test: run the Table 5 print phase only (no gbench loops).
# The v2 report's latency histograms with percentiles and the
# cycle-sampling profile with per-domain attribution must all be present,
# and the document must round-trip through the repo's own validator.
report=/tmp/t5.json
rm -f "$report"
build/bench/table5_switch --json "$report" --benchmark_filter=NONE >/dev/null
test -s "$report"
grep -q '"schema":"lz.bench.report.v2"' "$report"
grep -q '"counters":{' "$report"
grep -q '"mem.tlb.l1_hit"' "$report"
grep -q '"histograms":{' "$report"
grep -q '"lz.gate.switch_cycles"' "$report"
grep -q '"p99":' "$report"
grep -q '"profile":{' "$report"
grep -q '"by_domain":{"vmid' "$report"
build/bench/report_check "$report"

# v2 determinism: everything in the simulated sections runs on the
# simulated clock (histogram percentiles, profile samples, hotspot tables
# included), so a tier-on and a tier-off run must agree on every
# simulation-derived byte. The optional "host" section (sim.trace.*) is the
# one legitimate difference between the two engines, so the gate is
# lz_report --require-sim-identical (strip "host", compare dumps) rather
# than a raw cmp.
v2_a=/tmp/t5.v2.a.json
v2_b=/tmp/t5.v2.b.json
rm -f "$v2_a" "$v2_b"
build/bench/table5_switch --json "$v2_a" --benchmark_filter=NONE >/dev/null
LZ_TRACE_TIER=0 build/bench/table5_switch --json "$v2_b" \
  --benchmark_filter=NONE >/dev/null
build/bench/lz_report "$v2_a" "$v2_b" \
  --require-cycles-equal --require-sim-identical >/dev/null

# Regression gates via lz_report against the checked-in v2 golden: every
# simulated section must match it (observe-only contract, tier on), and
# the gate-switch p99 may not regress more than 10%.
build/bench/lz_report BENCH_table5_v2.json "$v2_a" \
  --require-cycles-equal --require-sim-identical \
  --hist-max lz.gate.switch_cycles:10 >/dev/null

# The shared flag parser rejects unknown flags loudly (exit 2), so a typo
# can never silently run the wrong experiment — and --help documents the
# shared set on exit 0.
if build/bench/table5_switch --no-such-flag >/dev/null 2>&1; then
  echo "ci.sh: unknown bench flag was not rejected" >&2
  exit 1
fi
build/bench/table5_switch --help | grep -q -- '--ts-period'
# The one-process figures refuse --cores the same way (exit 2) rather than
# silently running the single-process model.
for fig in fig4_mysql fig5_nvm; do
  set +e
  build/bench/$fig --cores 2 --benchmark_filter=NONE >/dev/null 2>&1
  rc=$?
  set -e
  if [ "$rc" -ne 2 ]; then
    echo "ci.sh: $fig --cores exited $rc, not 2" >&2
    exit 1
  fi
done

# Span tracing + time-series smoke: a 4-core httpd run with --trace must
# emit nested per-request duration spans (client request -> kernel task ->
# gate switch) with tenant labels, and --ts-period must add a schema-valid
# timeseries section with at least two snapshots.
fig3_json=/tmp/fig3.obs.json
fig3_trace=/tmp/fig3.obs.trace.json
rm -f "$fig3_json" "$fig3_trace"
build/bench/fig3_nginx --cores 4 --json "$fig3_json" --trace "$fig3_trace" \
  --ts-period 200000 --benchmark_filter=NONE >/dev/null
grep -q '"ph":"X"' "$fig3_trace"
grep -q '"cat":"span"' "$fig3_trace"
grep -q '"name":"request"' "$fig3_trace"
grep -q '"name":"task"' "$fig3_trace"
grep -q '"tenant":"httpd-worker' "$fig3_trace"
grep -q '"timeseries":{' "$fig3_json"
grep -q '"snapshots":\[{' "$fig3_json"
grep -q '"spans":{' "$fig3_json"
build/bench/report_check "$fig3_json"

# Trace bytes gate: the Chrome traces of two print phases are pinned by
# sha256. Every byte (event order, args, span nesting, timestamps) is
# simulated, so a moved hash is a real change to what the trace records.
# fig4 overflows the 65,536-event ring (216,754 drops), which pins the
# overwrite path and dropped_events too. The hashes are the same for
# Release builds and with the trace tier on or off.
for pin in \
    table4_traps:697c916e0246b156b5103d14f2a8ecd66babc6b147f1c5b6dbb39806633c0a8e \
    fig4_mysql:7ae0c8e08d7b465275fc183ae40fc6d91e1f6b7f92c2ccf75d4e4d4219e05029; do
  bin=${pin%%:*}
  pinned_trace=/tmp/$bin.pinned.trace.json
  rm -f "$pinned_trace"
  build/bench/$bin --trace "$pinned_trace" --benchmark_filter=NONE >/dev/null
  echo "${pin#*:}  $pinned_trace" | sha256sum -c --quiet -
done

# Trace tier on vs off across a real workload: fig3's httpd run registers
# the sim.trace.* host counters with the tier on and none with it off, so
# the "host" sections legitimately differ while every simulated section
# must stay byte-identical — exactly what --require-sim-identical gates.
# (No --ts-period here: SMP sample timestamps are host-scheduling
# dependent, see EXPERIMENTS.md.) The collapsed stacks must match byte for
# byte too: blocks take the samples that fall inside them at the
# instructions the interpreter takes them at.
fig3_on=/tmp/fig3.obs.trace_on.json
fig3_off=/tmp/fig3.obs.notrace.json
fig3_on_prof=/tmp/fig3.obs.trace_on.prof
fig3_off_prof=/tmp/fig3.obs.notrace.prof
rm -f "$fig3_on" "$fig3_off" "$fig3_on_prof" "$fig3_off_prof"
build/bench/fig3_nginx --cores 4 --json "$fig3_on" --profile "$fig3_on_prof" \
  --benchmark_filter=NONE >/dev/null
LZ_TRACE_TIER=0 build/bench/fig3_nginx --cores 4 --json "$fig3_off" \
  --profile "$fig3_off_prof" --benchmark_filter=NONE >/dev/null
test -s "$fig3_on_prof"
cmp "$fig3_on_prof" "$fig3_off_prof"
grep -q '"host":{"sim.trace.' "$fig3_on"
if grep -q '"host":' "$fig3_off"; then
  echo "ci.sh: tier-off run unexpectedly registered host counters" >&2
  exit 1
fi
build/bench/lz_report "$fig3_on" "$fig3_off" \
  --require-cycles-equal --require-sim-identical >/dev/null

# A profiled run is the unprofiled engine (DESIGN.md section 12.2): arming
# the profiler at its default period may not change which traces are
# built, run or discarded, so the "host" section (sim.trace.*) of a --json
# run must equal that of a --sample-period 0 run.
for bin in table5_switch fig3_nginx; do
  sampled=/tmp/$bin.sampled.json
  unsampled=/tmp/$bin.unsampled.json
  rm -f "$sampled" "$unsampled"
  build/bench/$bin --json "$sampled" --benchmark_filter=NONE >/dev/null
  build/bench/$bin --json "$unsampled" --sample-period 0 \
    --benchmark_filter=NONE >/dev/null
  grep -q '"profile":{"period":4096,"samples":[1-9]' "$sampled"
  host_sampled=$(grep -o '"host":{[^}]*}' "$sampled")
  host_unsampled=$(grep -o '"host":{[^}]*}' "$unsampled")
  if [ -z "$host_sampled" ] || [ "$host_sampled" != "$host_unsampled" ]; then
    echo "ci.sh: $bin host section with the profiler armed" \
      "($host_sampled) != disarmed ($host_unsampled)" >&2
    exit 1
  fi
done

# Metrics-plane smoke: the per-tenant exposition must carry the per-worker
# rps and request-latency summaries plus the per-tenant/domain switch-cycle
# families, and two same-seed runs must render byte-identical snapshots
# (every series value is derived from simulated work only).
expo_a=/tmp/fig3.metrics.a.prom
expo_b=/tmp/fig3.metrics.b.prom
rm -f "$expo_a" "$expo_b"
build/bench/fig3_nginx --cores 4 --metrics-out "$expo_a" \
  --benchmark_filter=NONE >/dev/null
build/bench/fig3_nginx --cores 4 --metrics-out "$expo_b" \
  --benchmark_filter=NONE >/dev/null
cmp "$expo_a" "$expo_b"
grep -q '^httpd_rps{tenant="httpd-worker0",quantile="0.99"}' "$expo_a"
grep -q '^httpd_requests{tenant="httpd-worker3"}' "$expo_a"
grep -q '^httpd_request_cycles{tenant="httpd-worker0",quantile="0.5"}' "$expo_a"
grep -q '^lz_tenant_gate_switch_cycles{tenant=' "$expo_a"
grep -q '^lz_tenant_world_switch_cycles{tenant=' "$expo_a"

# Overhead self-audit, part 1: arming the metrics plane (and the final
# exposition write) may not move a simulated cycle or counter — the armed
# table5 run must be sim-identical to the flagless baseline.
t5_metrics=/tmp/t5.metrics.json
t5_expo=/tmp/t5.metrics.prom
rm -f "$t5_metrics" "$t5_expo"
build/bench/table5_switch --json "$t5_metrics" --metrics-out "$t5_expo" \
  --benchmark_filter=NONE >/dev/null
test -s "$t5_expo"
grep -q '^lz_tenant_gate_switch_cycles{tenant=' "$t5_expo"
build/bench/lz_report "$v2_a" "$t5_metrics" \
  --require-cycles-equal --require-sim-identical >/dev/null

# Overhead self-audit, part 2: with --self-profile the obs stack attributes
# its own host wall-clock (sampling, rendering, dump pump) to
# host.self.obs. On the engine-heavy throughput bench with the pump firing
# every 10M simulated cycles, the obs stack must stay below 25% of the
# engine's own run-tier time — the metrics plane may observe the engine,
# not crowd it out.
audit_expo=/tmp/throughput.audit.prom
rm -f "$audit_expo"
build/bench/throughput --iters 1 --metrics-out "$audit_expo" \
  --self-profile --ts-period 10000000 >/dev/null
awk '/^host_self_run_ticks/ { run = $2 }
     /^host_self_obs_ticks/ { obs = $2 }
     END {
       if (run == 0 || obs == 0) { print "self-audit: no ticks"; exit 1 }
       ratio = obs / run
       printf "self-audit: host.self.obs / host.self.run = %.4f\n", ratio
       exit ratio < 0.25 ? 0 : 1
     }' "$audit_expo"

# SMP determinism smoke: the 4-core Table 5 run (per-core TLB hit rates,
# concurrent scheduler threads) must be byte-identical across two runs.
smp_a=/tmp/t5.smp.a.json
smp_b=/tmp/t5.smp.b.json
rm -f "$smp_a" "$smp_b"
build/bench/table5_switch --cores 4 --json "$smp_a" --benchmark_filter=NONE >/dev/null
build/bench/table5_switch --cores 4 --json "$smp_b" --benchmark_filter=NONE >/dev/null
cmp "$smp_a" "$smp_b"
grep -q '"sim.core3.tlb.l1_hit"' "$smp_a"
build/bench/report_check "$smp_a"

# Differential fuzz gate (DESIGN.md section 10): >=10k seeded Table-2 ops
# across 4 cores through live module + shadow model. The binary exits
# non-zero on any status divergence, TLB-vs-walk divergence, non-byte-
# identical replay, or 1-vs-4-core counter drift.
build/bench/fuzz_table2 --seed 1 --cores 4 --ops 2600
build/bench/fuzz_table2 --seed 20260805 --cores 2 --ops 1500

# Encoded-A64 stream fuzz gate (DESIGN.md section 15): >=10k seeded
# instruction streams through the full entry/sanitizer/gate/fault path with
# the break-before-make and TLB-vs-walk oracles armed. Each invocation runs
# its streams twice on the requested topology (byte-identical replay) and
# once on 1 core (same outcomes, counters modulo the SMP-variant set); any
# oracle divergence aborts with a flight-recorder dump.
build/bench/fuzz_a64 --seed 1 --cores 4 --streams 2000
build/bench/fuzz_a64 --seed 20260808 --cores 2 --streams 1500

# Trace tier on vs off over guest code: the streams' guest kernels run
# MSR/MRS/SYS, which the tier executes inside its blocks through the same
# exec_system, so the outcome hash must not depend on the tier. The second
# seed's wild streams take the most side exits (conditional branches that
# leave a block mid-way and roll the rest of it back).
for a64_args in "--seed 1 --cores 1 --streams 2000" \
                "--seed 20260808 --cores 1 --streams 1500"; do
  a64_on=$(LZ_TRACE_TIER=1 build/bench/fuzz_a64 $a64_args \
    | grep -o 'outcome hash [0-9a-f]*' | head -1)
  a64_off=$(LZ_TRACE_TIER=0 build/bench/fuzz_a64 $a64_args \
    | grep -o 'outcome hash [0-9a-f]*' | head -1)
  if [ -z "$a64_on" ] || [ "$a64_on" != "$a64_off" ]; then
    echo "ci.sh: fuzz_a64 $a64_args tier on ($a64_on) != tier off ($a64_off)" >&2
    exit 1
  fi
done

# Backend matrix (DESIGN.md section 14): every IsolationBackend runs the
# Table-5 program and a fuzz smoke through the identical op generator. The
# ttbr_pan leg is the refactor gate — routing the verbs through the
# interface may not move a byte of the checked-in golden. The model legs
# must emit schema-valid v2 reports and fuzz divergence-free.
# fig3 runs the same backend as a row of the multi-worker httpd server
# (--backend and --cores together), so every backend must also reach its
# smp.<combo>.<row> keys through the one workload driver.
declare -A smp_row=([ttbr_pan]=LightZone-TTBR [poe]=POE-keys [cca]=CCA-GPT
                    [watchpoint]=Watchpoint [lwc]=lwC)
# The model backends keep their Table-2 state in the shadow model itself, so
# their fuzz smoke cannot diverge from it; the status hash each prints is
# pinned instead (Watchpoint's differs: its 17-domain cap).
declare -A fuzz_hash=([ttbr_pan]=413226f0ea0f17ca [poe]=413226f0ea0f17ca
                      [cca]=413226f0ea0f17ca [watchpoint]=9e572e04d29e41ae
                      [lwc]=413226f0ea0f17ca)
for backend in ttbr_pan poe cca watchpoint lwc; do
  bk=/tmp/t5.backend.$backend.json
  rm -f "$bk"
  build/bench/table5_switch --backend "$backend" --json "$bk" \
    --benchmark_filter=NONE >/dev/null
  build/bench/report_check "$bk"
  fz=$(build/bench/fuzz_table2 --backend "$backend" --seed 7 --cores 2 \
    --ops 800)
  echo "$fz"
  if ! grep -q "status hash ${fuzz_hash[$backend]}\$" <<<"$fz"; then
    echo "ci.sh: fuzz_table2 --backend $backend status hash moved" \
      "(want ${fuzz_hash[$backend]})" >&2
    exit 1
  fi
  f3=/tmp/fig3.backend.$backend.json
  rm -f "$f3"
  build/bench/fig3_nginx --backend "$backend" --cores 2 --json "$f3" \
    --benchmark_filter=NONE >/dev/null
  build/bench/report_check "$f3"
  grep -q "\"smp.cortex_host.${smp_row[$backend]}.total_rps\"" "$f3"
done
# The v2 report's "host" section (sim.trace.*) moves with the engine — the
# call gates run through the trace tier — so the golden gate compares every
# simulated section, not raw bytes.
build/bench/lz_report BENCH_table5_v2.json /tmp/t5.backend.ttbr_pan.json \
  --require-cycles-equal --require-sim-identical >/dev/null
grep -q '"sim.trace.executed":[1-9]' /tmp/t5.backend.ttbr_pan.json
grep -q '"backend.poe.cortex_host.128.key_recycles"' /tmp/t5.backend.poe.json
grep -q '"backend.cca.cortex_host.128.gpt_walks"' /tmp/t5.backend.cca.json
tp_poe=/tmp/throughput.backend.poe.json
rm -f "$tp_poe"
build/bench/throughput --backend poe --json "$tp_poe" >/dev/null
build/bench/report_check "$tp_poe"
grep -q '"backend.poe.avg_cycles"' "$tp_poe"

# Release (-O2) leg: the hot-path engine (L0 translation cache, decoded-page
# cache, batched accounting) must keep *simulated* cycle totals byte-stable,
# and with the profiler off (--sample-period 0) host throughput must stay
# within 10% of the checked-in baseline — the observability stack may not
# slow down the disabled path. Wall-clock noise is real, so the gate takes
# the best of three run-level medians (each already a median of three
# in-process repeats); noise only ever pushes MIPS down.
cmake -B build-release -G Ninja -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-release --target throughput report_check
for i in 1 2 3; do
  tp=/tmp/throughput.$i.json
  rm -f "$tp"
  build-release/bench/throughput --sample-period 0 --json "$tp" >/dev/null
  grep -q '"schema":"lz.bench.report.v2"' "$tp"
  build-release/bench/report_check "$tp"
done
# lz_report takes the best of the three candidates against the checked-in
# baseline: the simulated cycle totals must match exactly, the MIPS median
# may not fall more than 10% below the baseline, and the trace-tier kernels
# (straight_line, tight_loop) must clear the absolute 500 host-MIPS floor
# the superblock tier was built to hit (DESIGN.md section 16).
build/bench/lz_report BENCH_throughput.json \
  /tmp/throughput.1.json /tmp/throughput.2.json /tmp/throughput.3.json \
  --require-cycles-equal --result-min straight_line.mips.median:10 \
  --result-floor straight_line.mips.median:500 \
  --result-floor tight_loop.mips.median:500
# The same kernels with the trace tier off must simulate the same cycles:
# domain_switch rewrites TTBR0 over non-global code every iteration, so its
# blocks run right at the edge of the memo keys (DESIGN.md section 16.2).
tp_off=/tmp/throughput.notrace.json
rm -f "$tp_off"
LZ_TRACE_TIER=0 build-release/bench/throughput --sample-period 0 \
  --json "$tp_off" >/dev/null
build/bench/lz_report BENCH_throughput.json "$tp_off" \
  --require-cycles-equal >/dev/null

# TSan build: the SMP scheduler, per-core TLB shootdown, obs counters, the
# lock-free hot path (L0 slot stamps, PhysMem radix, batched flushes), the
# PMU/profiler/histogram instruments, the BBM write-protocol monitor and
# both concurrent fuzz drivers must be clean under the thread sanitizer.
cmake -B build-tsan -G Ninja -DLZ_SANITIZE=thread >/dev/null
cmake --build build-tsan --target smp_test obs_test obs_v3_test \
  metrics_test switch_probe_test hotpath_test histogram_test profiler_test \
  pmu_test backend_test bbm_test workloads_test mem_test fuzz_table2 \
  fuzz_a64 throughput fig3_nginx
build-tsan/tests/smp_test
build-tsan/tests/obs_test
build-tsan/tests/obs_v3_test
build-tsan/tests/metrics_test
# Switch counters and histograms are per-thread shards written with plain
# loads and stores: four core threads record while a fifth takes snapshots.
build-tsan/tests/switch_probe_test
# Tier forced on explicitly: the trace dispatch path and the slot-stamp
# invalidation by remote DVM shootdowns must be race-free on SMP topologies.
LZ_TRACE_TIER=1 build-tsan/tests/hotpath_test
build-tsan/tests/histogram_test
build-tsan/tests/profiler_test
build-tsan/tests/pmu_test
build-tsan/tests/backend_test
build-tsan/tests/bbm_test
# Every workload row runs its request loop on a kernel worker thread,
# model backends included.
build-tsan/tests/workloads_test
# The TLB levels' u16 chain links and valid bitmaps, which remote DVM
# shootdowns reach too (differential test against the linear scan).
build-tsan/tests/mem_test
build-tsan/bench/fuzz_table2 --seed 3 --cores 4 --ops 400
LZ_TRACE_TIER=1 build-tsan/bench/fuzz_a64 --seed 3 --cores 4 --streams 200
build-tsan/bench/throughput --iters 1 --cores 2 >/dev/null
# Snapshots taken while other cores count: the time-series sampler fires on
# whichever core thread crosses the period and reads every core's linked
# counters, and the final exposition sums them. With --trace armed, every
# core thread also reads the derived cycle-ledger clock for each event and
# span while the others charge their accounts.
tsan_expo=/tmp/fig3.tsan.prom
tsan_trace=/tmp/fig3.tsan.trace.json
rm -f "$tsan_expo" "$tsan_trace"
build-tsan/bench/fig3_nginx --cores 4 --ts-period 200000 \
  --trace "$tsan_trace" --metrics-out "$tsan_expo" \
  --benchmark_filter=NONE >/dev/null
test -s "$tsan_expo"
test -s "$tsan_trace"

# ASan build: the fuzz driver exercises free/refault paths hard (it is
# what caught the dangling-region use-after-free in lz_free); keep it
# memory-clean under the address sanitizer, and sweep the new observability
# instruments for leaks and overruns too.
cmake -B build-asan -G Ninja -DLZ_SANITIZE=address >/dev/null
cmake --build build-asan --target fuzz_table2 fuzz_a64 check_test bbm_test \
  hotpath_test histogram_test profiler_test pmu_test obs_v3_test \
  backend_test metrics_test workloads_test mem_test lightzone_test hv_test \
  property_test sim_test
build-asan/tests/check_test
build-asan/tests/metrics_test
build-asan/tests/bbm_test
LZ_TRACE_TIER=1 build-asan/tests/hotpath_test
build-asan/tests/histogram_test
build-asan/tests/profiler_test
build-asan/tests/pmu_test
build-asan/tests/obs_v3_test
build-asan/tests/backend_test
build-asan/tests/workloads_test
build-asan/tests/mem_test
# Both page-table stages against the reference model (map, unmap, protect,
# lookup, for_each, post-order teardown) and the core's stage-2 walk paths.
build-asan/tests/property_test
build-asan/tests/sim_test
# Module and hypervisor paths, the 2^16 alloc/free ASID regression included.
build-asan/tests/lightzone_test
build-asan/tests/hv_test
build-asan/bench/fuzz_table2 --seed 5 --cores 4 --ops 600
LZ_TRACE_TIER=1 build-asan/bench/fuzz_a64 --seed 5 --cores 4 --streams 200

echo "ci.sh: OK"
