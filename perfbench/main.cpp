// lzbench: runs one workload of the repo benchmark and prints one JSON line
// with its fingerprint and metrics (perfbench/README.md).
//
//   lzbench --workload NAME --seed N --seconds S --trace 0|1 [--spans-out PATH]
//   lzbench --list          every metric with its unit
//   lzbench --scan-a64 N    host seconds of the first N a64_streams corpus
//                           entries, to find the slow ones
//
// A run measures in blocks for S seconds. Each block sets the workload up
// afresh from the seed, then runs ops from index 0: a whole number of the
// workload's periods, at least kBlockSeconds. The fingerprint after each
// block's first kVerifyOps ops must be the same in every block. One
// scenario is alive at a time. HostSpeed probes the host just before and
// after each block's ops, and the block's set-up and op times are scaled
// to the reference host speed. --trace 1 alternates untraced and traced
// blocks and prints the per-layer metrics instead.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "hostspeed.h"
#include "obs/counters.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace lzbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
  bool list = false;
  uint32_t scan = 0;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "lzbench: %s\n", msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--list") {
      a.list = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 0);
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a.trace = v != "0";
    else if (k == "--spans-out") a.spans_out = v;
    else if (k == "--scan-a64") a.scan = static_cast<uint32_t>(std::strtoul(v.c_str(), nullptr, 0));
    else usage(("unknown flag " + k).c_str());
  }
  return a;
}

// Ops after each set-up whose simulated fingerprint must agree.
constexpr uint64_t kVerifyOps = 32;
constexpr double kBlockSeconds = 0.2;

using Counts = std::map<std::string, uint64_t>;

Counts snapshot() {
  Counts c;
  for (const auto& [k, v] : lz::obs::registry().snapshot()) c[k] = v;
  for (const auto& [k, v] : lz::obs::registry().host_snapshot()) c[k] = v;
  return c;
}

// One measured block: its ops, host seconds, op times, and the factor
// that scales its times to the reference host speed.
struct BlockTimes {
  uint64_t ops = 0;
  double seconds = 0;
  double scale = 1;
  std::vector<std::pair<unsigned, uint64_t>> op_ns;  // LogHistogram::compact
  // Ops per second at the reference host speed.
  double rate() const { return static_cast<double>(ops) / (seconds * scale); }
};

// Measured ops of one kind (untraced or traced).
struct Phase {
  uint64_t ops = 0;
  uint64_t failed = 0;
  double seconds = 0;
  uint64_t words = 0;
  std::vector<BlockTimes> blocks;
  Counts counts;
};

// Set-up times and fingerprints, one per block.
struct Blocks {
  std::vector<SetupTimes> setups;
  std::vector<double> setup_s;
  std::vector<Fingerprint> fps;
};

// Sets the workload up afresh and runs one block of ops from index 0: whole
// periods of the workload, at least `min_s` seconds long.
void run_block(const Args& a, double min_s, HostSpeed& host, Blocks& b, Phase& ph,
               Tracer* tracer) {
  auto wl = make_workload(a.workload);
  int64_t t0 = now_ns();
  b.setups.push_back(wl->setup(a.seed));
  const double setup_s = static_cast<double>(now_ns() - t0) * 1e-9;
  const double probe_before = host.probe_ns();

  const Counts before = snapshot();
  const uint64_t period = wl->period_ops();
  const uint64_t min_ops = std::max(kVerifyOps, period);
  const auto min_ns = static_cast<int64_t>(min_s * 1e9);
  if (tracer != nullptr) tracer->install();
  LogHistogram op_ns;
  const int64_t start = now_ns();
  uint64_t i = 0;
  for (int64_t t1 = start; i < min_ops || t1 - start < min_ns || i % period != 0;) {
    t0 = now_ns();
    if (tracer != nullptr) tracer->op_begin(ph.ops + i);
    const bool ok = wl->op(i);
    if (tracer != nullptr) tracer->op_end();
    t1 = now_ns();
    op_ns.record(static_cast<uint64_t>(t1 - t0));
    if (!ok) ++ph.failed;
    if (++i == kVerifyOps) b.fps.push_back(wl->fingerprint());
  }
  const double secs = static_cast<double>(now_ns() - start) * 1e-9;
  Tracer::uninstall();
  ph.seconds += secs;
  ph.ops += i;
  const double scale = HostSpeed::kRefNs * 2 / (probe_before + host.probe_ns());
  b.setup_s.push_back(setup_s * scale);
  ph.blocks.push_back({i, secs, scale, op_ns.compact()});
  ph.words += wl->words();
  for (const auto& [k, v] : snapshot()) {
    const auto it = before.find(k);
    ph.counts[k] += v - (it == before.end() ? 0 : it->second);
  }
}

// Median of `v`; NaN when empty.
double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : (v[h - 1] + v[h]) / 2;
}

// Median over blocks of their ops per second, at the reference host speed.
// Every block holds the same work, periodic parts included.
double median_rate(const Phase& ph) {
  std::vector<double> v;
  for (const BlockTimes& b : ph.blocks) v.push_back(b.rate());
  return median(v);
}

// Times of every measured op, each block's scaled to the reference speed.
LogHistogram scaled_op_ns(const Phase& ph) {
  LogHistogram h;
  for (const BlockTimes& b : ph.blocks) h.merge(b.op_ns, b.scale);
  return h;
}

// Peak resident memory of this process image. VmHWM starts fresh at exec;
// getrusage's ru_maxrss would also count the parent's footprint at fork.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return std::nan("");
  char line[256];
  double kib = -1;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib < 0 ? std::nan("") : kib / 1024.0;
}

class Json {
 public:
  void key(const char* k) {
    sep();
    out_ += '"';
    out_ += k;
    out_ += "\":";
    fresh_ = true;
  }
  void raw(const std::string& v) {
    sep();
    out_ += v;
  }
  void str(const std::string& v) { raw("\"" + v + "\""); }
  void num(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    raw(buf);
  }
  void open() {
    raw("{");
    fresh_ = true;
  }
  void close() {
    out_ += '}';
    fresh_ = false;
  }
  const std::string& text() const { return out_; }

 private:
  void sep() {
    if (!fresh_ && !out_.empty()) out_ += ',';
    fresh_ = false;
  }
  std::string out_;
  bool fresh_ = true;
};

// Keeps the process, and the simulator's per-core threads it starts later,
// on the CPU it started on. A workload is one closed loop, so one host CPU
// serves it; unpinned, every Kernel::run_on hand-off may wake another
// (idle) vCPU, and on a virtual machine that wake-up costs tens of
// microseconds that swing with the host's load.
void pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) {
    std::fprintf(stderr, "lzbench: cannot pin to CPU %d\n", cpu);
  }
}

int list_metrics() {
  for (const MetricDef& d : metric_catalogue()) {
    const bool e2e = d.run == MetricRun::kEndToEnd;
    std::printf("%-40s %-9s %-10s %s\n", std::string(d.name).c_str(),
                std::string(d.unit).c_str(), e2e ? "end_to_end" : "per_layer",
                std::string(e2e ? d.better : d.moves).c_str());
  }
  return 0;
}

int scan_a64(uint32_t n) {
  const auto secs = scan_a64_corpus(n);
  for (std::size_t j = 0; j < secs.size(); ++j) {
    std::printf("%zu\t%.6f\n", j, secs[j]);
  }
  return 0;
}

int run(const Args& a) {
  if (make_workload(a.workload) == nullptr) usage("unknown --workload");
  std::optional<Tracer> tracer;
  if (a.trace) tracer.emplace();

  // A traced run alternates untraced and traced blocks so both sides see
  // the same host conditions. --seconds 0 still runs one block of each.
  const double min_s = std::min(kBlockSeconds, a.seconds);
  HostSpeed host;
  Blocks blocks;
  Phase plain, traced;
  const int64_t run_start = now_ns();
  do {
    run_block(a, min_s, host, blocks, plain, nullptr);
    if (tracer) run_block(a, min_s, host, blocks, traced, &*tracer);
  } while (static_cast<double>(now_ns() - run_start) * 1e-9 < a.seconds);
  const std::vector<Fingerprint>& fps = blocks.fps;
  const bool consistent =
      std::all_of(fps.begin(), fps.end(), [&](const Fingerprint& f) { return f == fps[0]; });
  const uint64_t attempted = plain.ops + traced.ops;
  const uint64_t failed = consistent ? plain.failed + traced.failed : attempted;

  Json j;
  j.open();
  j.key("workload");
  j.str(a.workload);
  j.key("seed");
  j.num(static_cast<double>(a.seed));
  j.key("trace");
  j.num(a.trace ? 1 : 0);
  j.key("attempted");
  j.num(static_cast<double>(attempted));
  j.key("failed");
  j.num(static_cast<double>(failed));
  j.key("fingerprint");
  j.open();
  char digest[24];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(fps.front().digest));
  j.key("ops");
  j.num(static_cast<double>(kVerifyOps));
  j.key("sim");
  j.num(static_cast<double>(fps.front().sim));
  j.key("digest");
  j.str(digest);
  j.key("blocks_agree");
  j.raw(consistent ? "true" : "false");
  j.close();
  // How fast the host ran against the reference (above 1: faster), median
  // over blocks; the reported times are the measured ones times this.
  std::vector<double> speeds;
  for (const BlockTimes& b : plain.blocks) speeds.push_back(b.scale);
  j.key("host_speed");
  j.num(median(speeds));

  std::map<std::string, double> m;
  const auto q = [](const LogHistogram& h, double p, double scale) {
    return percentile_reportable(h.count(), p) ? h.quantile(p) * scale : std::nan("");
  };
  if (!a.trace) {
    const LogHistogram op_ns = scaled_op_ns(plain);
    m["ops_per_s"] = median_rate(plain);
    m["op_us.p50"] = q(op_ns, 0.50, 1e-3);
    m["op_us.p90"] = q(op_ns, 0.90, 1e-3);
    m["setup_s"] = median(blocks.setup_s);
    m["peak_rss_mb"] = peak_rss_mb();
    m["success_rate"] =
        static_cast<double>(attempted - failed) / static_cast<double>(attempted);
  } else {
    const Tracer& t = *tracer;
    const double ops = static_cast<double>(t.ops());
    const auto p50 = [&](Layer l, double scale) {
      const double v = q(t.layer(l).hist, 0.50, scale);
      return std::isfinite(v) ? v : 0.0;
    };
    const auto share = [&](Layer l) { return t.layer(l).self_ns / t.op_ns(); };
    m["lightzone.gate_switch.ns.p50"] = p50(Layer::kGateSwitch, 1);
    const double gate_p99 = q(t.layer(Layer::kGateSwitch).hist, 0.99, 1);
    m["lightzone.gate_switch.ns.p99"] = std::isfinite(gate_p99) ? gate_p99 : 0.0;
    m["lightzone.gate_switch.calls_per_op"] =
        static_cast<double>(t.layer(Layer::kGateSwitch).calls) / ops;
    m["lightzone.gate_switch.share"] = share(Layer::kGateSwitch);
    m["lightzone.set_pan.ns.p50"] = p50(Layer::kSetPan, 1);
    m["lightzone.set_pan.share"] = share(Layer::kSetPan);
    const std::pair<Layer, const char*> verbs[] = {
        {Layer::kAlloc, "alloc"}, {Layer::kProt, "prot"},
        {Layer::kMapGate, "map_gate"}, {Layer::kTouch, "touch"},
        {Layer::kFree, "free"}};
    for (const auto& [l, n] : verbs) {
      m[std::string("lightzone.") + n + ".us.p50"] = p50(l, 1e-3);
      m[std::string("lightzone.") + n + ".share"] = share(l);
    }
    const auto setup_median = [&](double SetupTimes::*f) {
      std::vector<double> v;
      for (const SetupTimes& st : blocks.setups) v.push_back(st.*f);
      return median(v);
    };
    m["setup.env.s"] = setup_median(&SetupTimes::env_s);
    m["setup.enter.s"] = setup_median(&SetupTimes::enter_s);
    m["setup.domains.s"] = setup_median(&SetupTimes::domains_s);
    m["setup.data.s"] = setup_median(&SetupTimes::data_s);
    m["sim.mem_read.ns.p50"] = p50(Layer::kMemRead, 1);
    m["sim.mem_read.calls_per_op"] =
        static_cast<double>(t.layer(Layer::kMemRead).calls) / ops;
    m["sim.mem_read.share"] = share(Layer::kMemRead);
    m["sim.mem_write.ns.p50"] = p50(Layer::kMemWrite, 1);
    m["sim.mem_write.share"] = share(Layer::kMemWrite);
    m["sim.translate.ns.p50"] = p50(Layer::kTranslate, 1);
    m["sim.translate.share"] = share(Layer::kTranslate);
    m["crypto.aes_expand.us.p50"] = p50(Layer::kAesExpand, 1e-3);
    m["crypto.aes_cbc.us.p50"] = p50(Layer::kAesCbc, 1e-3);
    m["crypto.share"] = share(Layer::kAesExpand) + share(Layer::kAesCbc);
    m["check.a64_fuzz.share"] = share(Layer::kA64Fuzz);
    m["bench.unattributed.share"] = t.unattributed_ns() / t.op_ns();
    m["trace.span_cost_ns"] = t.span_cost_ns();
    m["trace.overhead_pct"] =
        (median_rate(plain) / median_rate(traced) - 1.0) * 100.0;

    // Counts per measured op, both kinds of block together.
    Counts c = plain.counts;
    for (const auto& [k, v] : traced.counts) c[k] += v;
    const double all = static_cast<double>(plain.ops + traced.ops);
    const auto per_op = [&](const char* k) { return static_cast<double>(c[k]) / all; };
    m["sim.trace.invalidated_gen_per_op"] = per_op("sim.trace.invalidated_gen");
    m["sim.trace.built_per_op"] = per_op("sim.trace.built");
    const double tlb_hits = static_cast<double>(c["mem.tlb.l1_hit"] + c["mem.tlb.l2_hit"]);
    const double tlb_all = tlb_hits + static_cast<double>(c["mem.tlb.miss"]);
    m["mem.tlb.hit_ratio"] = tlb_all > 0 ? tlb_hits / tlb_all : 0.0;
    m["mem.tlb.miss_per_op"] = per_op("mem.tlb.miss");
    m["mem.tlb.invalidation_per_op"] = per_op("mem.tlb.invalidation");
    m["sim.dvm.broadcast_per_op"] = per_op("sim.dvm.broadcast");
    m["sim.insns_per_op"] = per_op("sim.core.insn_retired");
    m["sim.mips"] = static_cast<double>(plain.counts["sim.core.insn_retired"]) /
                    plain.seconds * 1e-6;
    const double built = static_cast<double>(c["sim.trace.built"]);
    m["sim.trace.exec_per_build"] =
        built > 0 ? static_cast<double>(c["sim.trace.executed"]) / built : 0.0;
    m["kernel.syscalls_per_op"] = per_op("kernel.syscall.dispatched");
    m["hv.hvc_forward_per_op"] = per_op("lz.module.hvc_forward");
    m["lightzone.s1_faults_per_op"] = per_op("lz.module.s1_fault");
    m["lightzone.kills_per_op"] = per_op("lz.module.killed");
    m["check.a64.words_per_op"] =
        static_cast<double>(plain.words + traced.words) / all;
    if (!a.spans_out.empty() && !t.write_spans(a.spans_out)) {
      std::fprintf(stderr, "lzbench: cannot write %s\n", a.spans_out.c_str());
    }
  }

  j.key("metrics");
  j.open();
  for (const MetricDef& d : metric_catalogue()) {
    if ((d.run == MetricRun::kPerLayer) != a.trace) continue;
    const std::string name(d.name);
    const auto it = m.find(name);
    // Not reportable: no measured ops (--seconds 0).
    if (it == m.end() || !std::isfinite(it->second)) continue;
    j.key(name.c_str());
    j.open();
    j.key("value");
    j.num(it->second);
    j.key("unit");
    j.str(std::string(d.unit));
    j.close();
  }
  j.close();
  j.close();
  std::printf("%s\n", j.text().c_str());
  return 0;
}

}  // namespace
}  // namespace lzbench

int main(int argc, char** argv) {
  const lzbench::Args a = lzbench::parse(argc, argv);
  try {
    if (a.list) return lzbench::list_metrics();
    lzbench::pin_to_current_cpu();
    if (a.scan > 0) return lzbench::scan_a64(a.scan);
    return lzbench::run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lzbench: %s\n", e.what());
    return 1;
  }
}
