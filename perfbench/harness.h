// Shared plumbing of the repository benchmark: named metrics with units, an
// in-memory span recorder for the traced pass, the per-pass result every
// workload returns, and the helpers that turn a MetricsRegistry snapshot
// into the per-layer metrics.
//
// Every workload is measured from outside: the benchmark times and counts
// its own calls into each layer's public functions and reads the layers'
// public stats and observers (MetricsRegistry, obs::CycleProfile, the
// dataplane TX hook, a mark syscall). Nothing in src/ is changed for it.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "src/hw/types.h"
#include "src/obs/metrics.h"

namespace perfbench {

using palladium::u32;
using palladium::u64;
using palladium::u8;
using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// The paper's Pentium 200: simulated cycles -> microseconds.
inline constexpr double kCpuMhz = 200.0;
inline double CyclesToUs(double cycles) { return cycles / kCpuMhz; }

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// An ordered name -> (value, unit) list; Set overwrites an existing name.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const { return Find(name) != nullptr; }
  double Get(const std::string& name) const;  // 0 when absent
  const Metric* Find(const std::string& name) const;
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

// In-memory spans of the traced pass: name, host start/end, parent span and
// op id. Kept in memory while the pass runs and written out at exit.
class Spans {
 public:
  static constexpr u64 kNoOp = ~0ull;

  Spans() : epoch_(Clock::now()) {}

  int Begin(const char* name, u64 op = kNoOp);
  void End(int id);
  // A zero-length span (a per-op event such as a transmitted frame).
  void Instant(const char* name, u64 op);

  // Summed durations of every span called `name`, and the same minus the
  // time covered by their direct children (the layer's self time).
  double Total(const std::string& name) const;
  double Self(const std::string& name) const;
  size_t size() const { return spans_.size(); }

  // One JSON object per line: {"name","start_s","end_s","parent","op"}.
  bool WriteJsonl(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start = 0;
    double end = 0;
    int parent = -1;
    u64 op = kNoOp;
  };
  double Now() const { return SecondsBetween(epoch_, Clock::now()); }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a null recorder (untraced pass) records nothing.
class SpanScope {
 public:
  SpanScope(Spans* spans, const char* name, u64 op = Spans::kNoOp)
      : spans_(spans), id_(spans != nullptr ? spans->Begin(name, op) : -1) {}
  ~SpanScope() {
    if (spans_ != nullptr) spans_->End(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Spans* spans_;
  int id_;
};

// What one pass over a workload (set-up, then the timed call) produced.
struct Pass {
  double setup_s = 0;  // host seconds before the timed call
  double run_s = 0;    // host seconds of the timed call
  u64 offered = 0;     // ops offered (frames, requests, calls)
  u64 completed = 0;   // ops completed correctly
  u64 failed = 0;      // ops dropped, unserved, aborted or wrong
  std::vector<std::string> errors;  // failed correctness checks
  // Checks that fail because of a known simulator defect this benchmark
  // cannot fix; printed and recorded on every run, not counted against it.
  std::vector<std::string> known_failures;
  // Simulated-time values: identical across every pass of one seed, traced
  // or not, so they are compared key by key.
  MetricSet sim;
  // The rest: engine counters and host-time layer spans of this pass.
  MetricSet layer;
  // Digest of the generated inputs (different seeds -> different traffic).
  u64 inputs_digest = 0;

  void Check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  // One pass. A non-null `spans` makes it the traced pass: the observers
  // (CycleProfile, FlightRecorder) are attached and layer calls are spanned.
  virtual Pass RunPass(Spans* spans) = 0;
};

std::unique_ptr<Workload> MakeDpN1(u64 seed, double scale);
std::unique_ptr<Workload> MakeWebSoakSmp4(u64 seed, double scale);
std::unique_ptr<Workload> MakeUextCalls(u64 seed, double scale);

// Deterministic input generator (splitmix64), independent of the standard
// library's distributions so the same seed gives the same inputs anywhere.
class Rng {
 public:
  explicit Rng(u64 seed) : state_(seed) {}
  u64 Next() {
    u64 z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  u32 Below(u32 n) { return static_cast<u32>(Next() % n); }

 private:
  u64 state_;
};

// FNV-1a, for input digests.
inline u64 Fnv1a(u64 h, const void* data, size_t len) {
  const u8* p = static_cast<const u8*>(data);
  for (size_t i = 0; i < len; ++i) h = (h ^ p[i]) * 0x100000001B3ull;
  return h;
}
inline constexpr u64 kFnvBasis = 0xCBF29CE484222325ull;

// A fixed amount of host work that lives in the benchmark, not in the
// simulator: a cache-resident interpreter loop plus a random walk over a
// 4 MB table. Its run time tracks how fast a shared host is right now,
// which drifts by tens of percent over seconds to minutes. Each pass is
// bracketed by two probes, and its host times are scaled by
// kProbeNominalS / (probe seconds): the probe's time on the reference host
// (a 4-core x86-64 VM).
double HostProbeSeconds();
inline constexpr double kProbeNominalS = 0.022;

// Nearest-rank percentile of an unsorted sample (copied, then sorted).
double Percentile(std::vector<u64> values, double pct);
double Median(std::vector<double> values);

// Latency percentiles of per-op simulated cycles into `sim` (in us at
// 200 MHz), with the sample count: p50, p99, and p99.9 when at least ten
// samples lie beyond it.
void SetLatencies(const std::vector<u64>& cycles, MetricSet* sim);

// Fills the kernel, SMP, net, NIC and CPU per-layer metrics from a registry
// snapshot of a finished run, per `ops` completed ops. Architectural counts
// go to pass->sim, engine counters to pass->layer.
void FillLayersFromRegistry(const palladium::obs::MetricsRegistry& reg, u64 ops, Pass* pass);

// The CycleProfile ledger of a traced run (the registry's obs.profile.*
// counters), per op, into pass->sim. The run lasted `wall_cycles` and the
// scheduler counted `sched_idle` cycles idle, so its busy cycles are
// obs::BusyCycles(vCPUs, wall_cycles, sched_idle). Checks that the
// categories sum exactly to the profiled total, that the profile covers
// exactly the cycles each vCPU's clock ran (the registry's cpu<N>.cycles),
// and that its non-idle part equals the busy cycles; the difference is
// reported as sim.ledger_gap_cycles_per_op. With `smp_defects` a gap made
// only of the two known SMP accounting defects (harness.cc) is a known
// failure; any other mismatch fails the pass.
void FillLedgerFromProfile(const palladium::obs::MetricsRegistry& reg, u64 wall_cycles,
                           u64 sched_idle, u64 ops, bool smp_defects, Pass* pass);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
