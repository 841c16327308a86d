#include "harness.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "src/obs/profile.h"

namespace perfbench {

using palladium::obs::MetricsRegistry;

void MetricSet::Set(const std::string& name, double value, const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

const Metric* MetricSet::Find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

double MetricSet::Get(const std::string& name) const {
  const Metric* m = Find(name);
  return m != nullptr ? m->value : 0;
}

int Spans::Begin(const char* name, u64 op) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, Now(), 0, open_.empty() ? -1 : open_.back(), op});
  open_.push_back(id);
  return id;
}

void Spans::End(int id) {
  spans_[id].end = Now();
  // Spans close innermost first; tolerate a caller closing out of order.
  auto it = std::find(open_.rbegin(), open_.rend(), id);
  if (it != open_.rend()) open_.erase(std::next(it).base());
}

void Spans::Instant(const char* name, u64 op) {
  const double now = Now();
  spans_.push_back(Span{name, now, now, open_.empty() ? -1 : open_.back(), op});
}

double Spans::Total(const std::string& name) const {
  double total = 0;
  for (const Span& s : spans_) {
    if (name == s.name) total += s.end - s.start;
  }
  return total;
}

double Spans::Self(const std::string& name) const {
  double self = Total(name);
  for (const Span& s : spans_) {
    if (s.parent >= 0 && name == spans_[s.parent].name) self -= s.end - s.start;
  }
  return self;
}

bool Spans::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  char line[256];
  for (const Span& s : spans_) {
    std::snprintf(line, sizeof(line),
                  "{\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, \"parent\": %d, "
                  "\"op\": %lld}\n",
                  s.name, s.start, s.end, s.parent,
                  s.op == kNoOp ? -1LL : static_cast<long long>(s.op));
    out << line;
  }
  return static_cast<bool>(out);
}

double HostProbeSeconds() {
  static std::vector<u32> table(1u << 20);
  static bool filled = false;
  if (!filled) {
    for (u32 i = 0; i < table.size(); ++i) table[i] = i * 2654435761u;
    filled = true;
  }
  static const u8 kOps[64] = {0, 1, 2, 3, 1, 0, 2, 1, 3, 0, 0, 2, 1, 3, 2, 0, 1, 1, 2, 3, 0, 2,
                              3, 1, 0, 1, 2, 0, 3, 3, 1, 2, 2, 0, 1, 3, 0, 2, 1, 0, 3, 1, 2, 2,
                              0, 3, 1, 0, 1, 2, 3, 0, 2, 1, 0, 3, 1, 0, 2, 3, 1, 2, 0, 1};
  constexpr u32 kMask = (1u << 20) - 1;
  const auto start = Clock::now();
  u32 x = 12345, regs[4] = {1, 2, 3, 4}, small[1024] = {};
  for (int i = 0; i < 750'000; ++i) {  // interpreter-style dispatch, L1-resident
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    switch (kOps[(x >> 7) & 63]) {
      case 0: regs[x & 3] = small[(regs[(x >> 2) & 3] ^ x) & 1023]; break;
      case 1: small[(x >> 3) & 1023] += regs[x & 3]; break;
      case 2: regs[x & 3] += regs[(x >> 2) & 3] * 3; break;
      default: regs[(x >> 4) & 3] ^= regs[x & 3] >> 1; break;
    }
  }
  u32 idx = 0, acc = regs[0] ^ regs[1] ^ regs[2] ^ regs[3];
  for (int i = 0; i < 120'000; ++i) {  // dependent random accesses over 4 MB
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    idx = (table[idx] ^ x) & kMask;
    if (x & 1) {
      table[idx] += acc;
    } else {
      acc += table[idx] >> 3;
    }
  }
  table[0] ^= acc;  // keeps the work observable
  return SecondsBetween(start, Clock::now());
}

double Percentile(std::vector<u64> values, double pct) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value with at least pct% of samples <= it.
  size_t rank = static_cast<size_t>(pct / 100.0 * static_cast<double>(values.size()) + 0.999999);
  rank = std::clamp<size_t>(rank, 1, values.size());
  return static_cast<double>(values[rank - 1]);
}

void SetLatencies(const std::vector<u64>& cycles, MetricSet* sim) {
  sim->Set("sim_latency_p50_us", CyclesToUs(Percentile(cycles, 50)), "us");
  sim->Set("sim_latency_p99_us", CyclesToUs(Percentile(cycles, 99)), "us");
  if (cycles.size() >= 10'000) {
    sim->Set("sim_latency_p999_us", CyclesToUs(Percentile(cycles, 99.9)), "us");
  }
  sim->Set("sim.latency_samples", static_cast<double>(cycles.size()), "count");
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

u64 Counter(const MetricsRegistry& reg, const std::string& name) {
  auto it = reg.values().find(name);
  return it != reg.values().end() && it->second.integral ? it->second.u : 0;
}

// `cpu<N>.<suffix>` of every vCPU in the snapshot (in name order).
std::vector<u64> PerCpu(const MetricsRegistry& reg, const std::string& suffix) {
  std::vector<u64> values;
  for (const auto& [name, v] : reg.values()) {
    if (name.compare(0, 3, "cpu") != 0 || !v.integral) continue;
    const size_t dot = name.find('.');
    if (dot == std::string::npos || dot == 3 ||
        name.find_first_not_of("0123456789", 3) != dot) {
      continue;
    }
    if (name.compare(dot + 1, std::string::npos, suffix) == 0) values.push_back(v.u);
  }
  return values;
}

u64 SumCpus(const MetricsRegistry& reg, const std::string& suffix) {
  u64 total = 0;
  for (u64 v : PerCpu(reg, suffix)) total += v;
  return total;
}

double Ratio(u64 num, u64 den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

}  // namespace

void FillLayersFromRegistry(const MetricsRegistry& reg, u64 ops, Pass* pass) {
  MetricSet& sim = pass->sim;
  MetricSet& layer = pass->layer;

  // kernel + scheduler
  sim.Set("kernel.blocks_per_op", Ratio(Counter(reg, "sched.yields_or_blocks"), ops), "1/op");
  sim.Set("kernel.ctx_switches_per_op", Ratio(Counter(reg, "sched.context_switches"), ops),
          "1/op");
  sim.Set("kernel.preemptions_per_op", Ratio(Counter(reg, "sched.preemptions"), ops), "1/op");
  sim.Set("kernel.timer_irqs_per_op", Ratio(Counter(reg, "sched.timer_ticks"), ops), "1/op");

  // SMP run loop
  const u64 cpu_cycles = SumCpus(reg, "cycles");
  sim.Set("smp.idle_share", Ratio(Counter(reg, "sched.idle_cycles"), cpu_cycles), "ratio");
  sim.Set("smp.steals", static_cast<double>(Counter(reg, "sched.steals")), "count");
  sim.Set("smp.shootdown_ipis", static_cast<double>(Counter(reg, "kernel.smp.shootdown_ipis")),
          "count");

  // dataplane
  const u64 crossings = Counter(reg, "dataplane.filter_invocations");
  sim.Set("net.crossings_per_op", Ratio(crossings, ops), "1/op");
  // Batch fill: useful frames per crossing attempted (avoided ones included).
  sim.Set("net.frames_per_crossing",
          Ratio(Counter(reg, "dataplane.filter_frames"),
                crossings + Counter(reg, "dataplane.filter_calls_avoided")),
          "frames");
  sim.Set("net.frames_per_poll",
          Ratio(Counter(reg, "dataplane.napi_frames"), Counter(reg, "dataplane.napi_polls")),
          "frames");
  sim.Set("net.filtered_share",
          Ratio(Counter(reg, "dataplane.dropped_no_match"), Counter(reg, "dataplane.rx_frames")),
          "ratio");
  sim.Set("net.drops.queue_full",
          static_cast<double>(Counter(reg, "dataplane.dropped_queue_full")), "count");
  sim.Set("net.drops.backlog",
          static_cast<double>(Counter(reg, "dataplane.dropped_backlog_full")), "count");
  sim.Set("net.drops.rx_ring", static_cast<double>(Counter(reg, "nic.rx_dropped")), "count");

  // NIC interrupts (handler activations)
  sim.Set("nic.rx_irqs_per_op", Ratio(Counter(reg, "dataplane.nic_irqs"), ops), "1/op");
  sim.Set("nic.tx_irqs_per_op", Ratio(Counter(reg, "dataplane.tx_completion_irqs"), ops),
          "1/op");

  // CPU engine and ISA: retired instructions and TLB behavior are
  // architectural; the tier shares and decode-cache counters describe the
  // execution machinery and legitimately move with engine changes.
  const u64 insns = SumCpus(reg, "instructions_retired");
  const u64 tlb_hits = SumCpus(reg, "tlb.hits");
  const u64 tlb_misses = SumCpus(reg, "tlb.misses");
  sim.Set("cpu.insns_per_op", Ratio(insns, ops), "insn/op");
  sim.Set("cpu.tlb_miss_ratio", Ratio(tlb_misses, tlb_hits + tlb_misses), "ratio");
  layer.Set("cpu.instructions", static_cast<double>(insns), "insn");
  layer.Set("cpu.trace_insn_share", Ratio(SumCpus(reg, "trace.uop_insns"), insns), "ratio");
  layer.Set("cpu.block_insn_share", Ratio(SumCpus(reg, "block.insns"), insns), "ratio");
  layer.Set("cpu.decode_builds", static_cast<double>(SumCpus(reg, "decode.builds")), "count");
  layer.Set("cpu.decode_write_invalidations",
            static_cast<double>(SumCpus(reg, "decode.write_invalidations")), "count");
  const u64 dtlb_hits = SumCpus(reg, "dtlb.hits");
  layer.Set("cpu.dtlb_hit_ratio", Ratio(dtlb_hits, dtlb_hits + SumCpus(reg, "dtlb.misses")),
            "ratio");
}

void FillLedgerFromProfile(const MetricsRegistry& reg, u64 wall_cycles, u64 sched_idle, u64 ops,
                           bool smp_defects, Pass* pass) {
  static const char* const kCategories[] = {"user", "kernel", "filter_body", "crossing",
                                            "irq",  "tlb_miss", "idle"};
  static const char* const kMetricNames[] = {
      "sim.user_cycles_per_op", "sim.kernel_cycles_per_op", "sim.filter_body_cycles_per_op",
      "sim.crossing_cycles_per_op", "sim.irq_cycles_per_op", "sim.tlb_miss_cycles_per_op",
      "sim.idle_cycles_per_op"};
  u64 sum = 0, busy = 0;
  for (size_t i = 0; i < 7; ++i) {
    const u64 cycles = Counter(reg, std::string("obs.profile.") + kCategories[i]);
    sum += cycles;
    if (std::strcmp(kCategories[i], "idle") != 0) busy += cycles;
    pass->sim.Set(kMetricNames[i], Ratio(cycles, ops), "cycles");
  }
  const u64 total = Counter(reg, "obs.profile.total_cycles");
  pass->Check(total > 0, "ledger: the CycleProfile recorded nothing");
  pass->Check(sum == total, "ledger: categories sum to " + std::to_string(sum) +
                                " cycles, profiled total is " + std::to_string(total));

  // Every vCPU starts the run at frontier - wall and is profiled up to its
  // own final clock; the frontier is the latest of those clocks.
  const std::vector<u64> ends = PerCpu(reg, "cycles");
  const u32 cpus = static_cast<u32>(ends.size());
  const u64 frontier = ends.empty() ? 0 : *std::max_element(ends.begin(), ends.end());
  u64 ran = 0;
  for (u64 end : ends) ran += end - (frontier - wall_cycles);
  pass->Check(total == ran, "ledger: the profile covers " + std::to_string(total) +
                                " cycles, the vCPUs ran " + std::to_string(ran));

  const u64 busy_cycles = palladium::obs::BusyCycles(cpus, wall_cycles, sched_idle);
  pass->sim.Set("sim.ledger_gap_cycles_per_op",
                (static_cast<double>(busy_cycles) - static_cast<double>(busy)) /
                    static_cast<double>(std::max<u64>(ops, 1)),
                "cycles");
  if (busy == busy_cycles) return;
  const std::string what = "ledger: non-idle categories sum to " + std::to_string(busy) +
                           " cycles, busy cycles are " + std::to_string(busy_cycles);
  // With the totals checked above, the gap is exactly two parts, each a
  // known SMP accounting defect; only they are tolerated, and only on SMP.
  // (a) obs::BusyCycles assumes every vCPU's clock ends at the frontier;
  //     Scheduler::RunAll leaves the others short of it, and that tail
  //     counts as busy.
  // (b) Scheduler::Dispatch snaps a lagging vCPU's clock forward to the
  //     enqueue stamp of the process it picks up; the profile books the
  //     span as idle, Scheduler::Stats::idle_cycles does not.
  const u64 profile_idle = sum - busy;
  if (smp_defects && sum == total && total == ran && profile_idle >= sched_idle) {
    const u64 tail = static_cast<u64>(cpus) * wall_cycles - ran;
    pass->known_failures.push_back(
        what + " (known defects: " + std::to_string(tail) +
        " cycles of vCPU clocks that end short of the frontier count as busy; " +
        std::to_string(profile_idle - sched_idle) +
        " cycles of dispatch clock snaps are idle in the profile, not in "
        "Scheduler::Stats::idle_cycles)");
  } else {
    pass->Check(false, what);
  }
}

}  // namespace perfbench
