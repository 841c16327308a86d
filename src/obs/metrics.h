// MetricsRegistry: one process-wide registry of named counters/gauges that
// federates the per-subsystem stats structs scattered across the machine —
// CPU cycle/retire/TLB/D-TLB counters, decode-cache generations, block-
// engine counters, per-CPU scheduler stats, NIC per-queue ring/IRQ
// stats, dataplane crossing/drop accounting, SMP shootdown counters — behind
// one flat, sorted name -> value map and one `SnapshotJson()`.
//
// Naming scheme: `<subsystem>[<index>].<group>.<counter>`, e.g.
//   cpu0.tlb.misses, cpu0.block.chains, sched.preemptions,
//   sched.cpu1.steals, nic.q0.rx_frames, dataplane.filter_batches,
//   kernel.smp.shootdown_ipis, obs.trace.dropped_events.
// Benches emit the snapshot into their BENCH_*.json metrics object with an
// `obs.` prefix, so trend tooling sees every subsystem counter per run.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <map>
#include <string>

#include "src/hw/types.h"

namespace palladium {

class Cpu;
class DynamicLinker;
class Kernel;
class KernelExtensionManager;
class LocalRpcChannel;
class Nic;
class PacketDataplane;
class Scheduler;
struct BpfHostStats;
struct SfiStats;

namespace obs {

class CycleProfile;
class FlightRecorder;

struct MetricValue {
  bool integral = true;
  u64 u = 0;
  double d = 0.0;
};

class MetricsRegistry {
 public:
  void Counter(const std::string& name, u64 value) {
    values_[name] = MetricValue{true, value, 0.0};
  }
  void Gauge(const std::string& name, double value) {
    values_[name] = MetricValue{false, 0, value};
  }

  // Federation: pull a subsystem's stats struct in under its prefix.
  void CollectCpu(const Cpu& cpu, u32 index);
  void CollectSched(const Scheduler& sched, u32 num_cpus);
  void CollectNic(const Nic& nic);
  void CollectDataplane(const PacketDataplane& dp);
  void CollectKernel(const Kernel& kernel);  // SMP shootdown counters
  void CollectProfile(const CycleProfile& profile);
  void CollectRecorder(const FlightRecorder& recorder);
  // Protection-subsystem counters (the Figure-7 ablation modes).
  void CollectKext(const KernelExtensionManager& kext);
  void CollectSfi(const SfiStats& stats);
  void CollectBpf(const BpfHostStats& stats);
  void CollectRpc(const LocalRpcChannel& rpc);
  void CollectDl(const DynamicLinker& dl);
  // Every CPU + scheduler + SMP counter of a kernel machine in one call.
  void CollectMachine(const Kernel& kernel, const Scheduler* sched);

  const std::map<std::string, MetricValue>& values() const { return values_; }
  bool empty() const { return values_.empty(); }

  // Flat sorted JSON object {"name": value, ...}.
  std::string SnapshotJson() const;

 private:
  std::map<std::string, MetricValue> values_;
};

}  // namespace obs
}  // namespace palladium

#endif  // SRC_OBS_METRICS_H_
