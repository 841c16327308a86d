// web_soak_smp4: RunMultiWorkerServer on 4 vCPUs — 8 workers, RSS flow
// steering, per-core NIC queues with NAPI and batched filter crossings, 80%
// fresh client flows and 20% keep-alive reuses, offered open loop at
// ~66k req/s. The only workload where the multi-vCPU run loop, RSS spreading
// and the HTTP layer carry the load.
//
// A pass offers 30k requests (24k distinct flows), not the 150k of
// bench_dataplane --soak: a 150k pass takes 2.5-4 host seconds, too few
// passes per run for a steady host figure on a shared host. The simulated
// figures agree with the 150k soak to within 1%.
//
// RunMultiWorkerServer builds its machine, loads its workers and generates
// its request stream inside the one call, so the whole call is the timed
// phase. Set-up is measured by the same call with the same configuration
// and a token 8-request load: the fixed cost of standing up the 4-vCPU
// machine, the workers and the filter flow. The seed sets the phase of the
// arrival stream against the timers and the IRQ moderation windows.
#include <algorithm>

#include "harness.h"
#include "src/obs/metrics.h"
#include "src/obs/profile.h"
#include "src/obs/trace.h"
#include "src/web/server_sim.h"

namespace perfbench {
namespace {

using namespace palladium;

constexpr u32 kBaseRequests = 30'000;
constexpr u32 kSetupRequests = 8;
// The workload's fixed p99 latency limit (simulated microseconds).
constexpr double kSloP99Us = 125.0;

MultiServerConfig SoakConfig(u64 seed, u32 requests) {
  MultiServerConfig cfg;
  cfg.smp = 4;
  cfg.workers = 8;
  cfg.total_requests = requests;
  cfg.clients = std::max(1u, requests - requests / 5);  // 80% fresh, 20% keep-alive
  cfg.inter_arrival_cycles = 3'000;                     // ~66k req/s at 200 MHz
  cfg.first_arrival_cycle = 10'000 + Rng(seed).Below(3'000);
  cfg.cycle_budget = 60'000'000'000ull;
  cfg.steering = FlowSteering::kFlowHash;
  cfg.queues = 4;
  cfg.napi = true;
  cfg.filter_batch = 32;
  cfg.rx_irq_moderation = 16'000;
  return cfg;
}

class WebSoakSmp4 : public Workload {
 public:
  WebSoakSmp4(u64 seed, double scale)
      : seed_(seed),
        requests_(std::max<u32>(1'000, static_cast<u32>(kBaseRequests * scale))) {}

  Pass RunPass(Spans* spans) override;

 private:
  u64 seed_;
  u32 requests_;
};

Pass WebSoakSmp4::RunPass(Spans* spans) {
  Pass pass;
  const bool traced = spans != nullptr;
  MultiServerConfig cfg = SoakConfig(seed_, requests_);
  pass.inputs_digest = Fnv1a(Fnv1a(kFnvBasis, &cfg.first_arrival_cycle, 8), &requests_, 4);

  MultiServerConfig token = cfg;
  token.total_requests = kSetupRequests;
  token.clients = kSetupRequests;
  const auto setup_start = Clock::now();
  MultiServerResult token_result;
  {
    SpanScope s(spans, "setup.multi_worker_server");
    token_result = RunMultiWorkerServer(token);
  }
  pass.setup_s = SecondsBetween(setup_start, Clock::now());
  pass.Check(token_result.ok, "set-up run: " + token_result.diag);

  obs::MetricsRegistry reg;
  obs::CycleProfile profiler;
  obs::FlightRecorder recorder;
  cfg.metrics = &reg;
  if (traced) {
    cfg.profiler = &profiler;
    cfg.recorder = &recorder;
  }
  const auto run_start = Clock::now();
  MultiServerResult r;
  {
    SpanScope s(spans, "web.run_multi_worker_server");
    r = RunMultiWorkerServer(cfg);
  }
  pass.run_s = SecondsBetween(run_start, Clock::now());

  const u64 offered = cfg.total_requests;
  pass.offered = offered;
  pass.completed = std::min<u64>(r.served, offered);
  pass.failed = offered - pass.completed;
  pass.Check(r.ok, "soak: " + r.diag);
  pass.Check(r.served == offered, "served " + std::to_string(r.served) + " of " +
                                      std::to_string(offered) + " requests");
  pass.Check(r.parsed_requests == r.served, "HTTP layer parsed " +
                                                std::to_string(r.parsed_requests) +
                                                " requests, served " + std::to_string(r.served));
  pass.Check(r.connections == cfg.clients, "connection table saw " +
                                               std::to_string(r.connections) + " connections, " +
                                               std::to_string(cfg.clients) + " offered");
  pass.Check(r.keepalive_reuses == offered - cfg.clients,
             "keep-alive reuses " + std::to_string(r.keepalive_reuses) + ", offered " +
                 std::to_string(offered - cfg.clients));
  pass.Check(r.queue_full_drops == 0,
             std::to_string(r.queue_full_drops) + " requests dropped at full worker queues");
  u64 worker_total = 0;
  for (i32 served : r.per_worker_served) worker_total += served > 0 ? served : 0;
  pass.Check(worker_total == r.served, "workers report " + std::to_string(worker_total) +
                                           " responses, the wire saw " +
                                           std::to_string(r.served));

  const u64 busy = obs::BusyCycles(r.cpus, r.cycles, r.idle_cycles);
  const u64 ops = std::max<u64>(1, r.served);
  MetricSet& sim = pass.sim;
  sim.Set("sim_cycles_per_op", static_cast<double>(busy) / static_cast<double>(ops), "cycles");
  sim.Set("sim_latency_p50_us", CyclesToUs(static_cast<double>(r.latency_p50_cycles)), "us");
  sim.Set("sim_latency_p99_us", CyclesToUs(static_cast<double>(r.latency_p99_cycles)), "us");
  sim.Set("sim.latency_max_us", CyclesToUs(static_cast<double>(r.latency_max_cycles)), "us");
  sim.Set("sim.latency_samples", static_cast<double>(r.parsed_requests), "count");
  sim.Set("sim.slo_p99_limit_us", kSloP99Us, "us");
  sim.Set("sim.slo_p99_within_limit",
          CyclesToUs(static_cast<double>(r.latency_p99_cycles)) <= kSloP99Us ? 1.0 : 0.0, "bool");
  sim.Set("op_fail_ratio", static_cast<double>(pass.failed) / static_cast<double>(offered),
          "ratio");
  sim.Set("web.keepalive_reuse_share",
          static_cast<double>(r.keepalive_reuses) / static_cast<double>(ops), "ratio");
  sim.Set("web.connections", static_cast<double>(r.connections), "count");

  FillLayersFromRegistry(reg, ops, &pass);
  if (traced) {
    // Two known SMP accounting defects keep the ledger from closing on 4
    // vCPUs (see FillLedgerFromProfile); only they are tolerated.
    FillLedgerFromProfile(reg, r.cycles, r.idle_cycles, ops, /*smp_defects=*/true, &pass);
    sim.Set("core.kext.crossing_cycles_per_call",
            r.filter_invocations > 0
                ? static_cast<double>(profiler.BucketTotal(obs::Category::kCrossing)) /
                      static_cast<double>(r.filter_invocations)
                : 0.0,
            "cycles");
  }
  return pass;
}

}  // namespace

std::unique_ptr<Workload> MakeWebSoakSmp4(u64 seed, double scale) {
  return std::make_unique<WebSoakSmp4>(seed, scale);
}

}  // namespace perfbench
