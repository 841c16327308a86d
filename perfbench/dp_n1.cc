// dp_n1: the packet dataplane with its filter deployed as a Palladium kernel
// extension (SPL 1), on one vCPU. The production pipeline of
// bench/bench_dataplane.cc: 4 batched echo workers, NAPI polling, 32 frames
// per protected filter crossing, 16k-cycle RX IRQ moderation. Flows are
// steered by RSS hash so each wire flow sticks to one worker and its order
// can be checked. Seeded TraceGenerator traffic (some frames fail the
// filter, payload sizes vary) is offered open loop in simulated time at a
// fixed rate below one core's capacity.
//
// Per delivered frame the TX hook checks the verdict against the host
// filter, the bytes against what was injected and the flow's order, and
// records inject -> TX latency. After the run every offered frame must be
// accounted for exactly: delivered + filtered + the drop reasons.
#include <algorithm>
#include <cstring>

#include "harness.h"
#include "src/asm/assembler.h"
#include "src/core/kernel_ext.h"
#include "src/filter/filter.h"
#include "src/hw/nic.h"
#include "src/kernel/kernel.h"
#include "src/kernel/sched.h"
#include "src/net/dataplane.h"
#include "src/net/packet.h"
#include "src/obs/metrics.h"
#include "src/obs/profile.h"
#include "src/obs/trace.h"

namespace perfbench {
namespace {

using namespace palladium;

constexpr char kFilterText[] = "ip.proto == 6 && ip.src == 10.20.30.40 && tcp.dport == 8080";
constexpr u32 kWorkers = 4;
constexpr u32 kBasePackets = 100'000;
// ~133k pps offered at 200 MHz against ~155k pps of one-core capacity.
constexpr u64 kInterArrival = 1'500;
constexpr u64 kFirstArrival = 5'000;
constexpr double kMatchFraction = 0.8;
constexpr u32 kMatchFlows = 256;
// The workload's fixed p99 latency limit (simulated microseconds).
constexpr double kSloP99Us = 120.0;

// Payload layout of every generated frame: u32 sequence number first, so a
// transmitted frame identifies the injected one.
constexpr u32 kMinPayload = 8;

struct Traffic {
  std::vector<std::vector<u8>> frames;
  std::vector<u64> arrival;
  std::vector<u8> matches;  // host filter verdict (EvalFilterHost)
  u64 expected_matches = 0;
  u64 digest = kFnvBasis;
};

Traffic Generate(u64 seed, u32 packets, const FilterExpr& expr) {
  PacketSpec match;
  match.proto = kIpProtoTcp;
  match.src_ip = 0x0A141E28;  // 10.20.30.40
  match.dst_port = 8080;
  TraceGenerator gen(seed, match, kMatchFraction);
  Rng rng(seed ^ 0xD1B54A32D192ED03ull);
  Traffic t;
  t.frames.reserve(packets);
  t.arrival.reserve(packets);
  t.matches.reserve(packets);
  u64 at = kFirstArrival;
  for (u32 i = 0; i < packets; ++i) {
    bool is_match = false;
    PacketSpec spec = gen.Next(&is_match);
    if (is_match) {
      // The source port is free under the filter: it names the flow.
      spec.src_port = static_cast<u16>(1024 + rng.Below(kMatchFlows));
      spec.payload_len = static_cast<u16>(16 + rng.Below(241));
    } else if (rng.Below(2) == 0) {
      // A near miss: the generator's miss differs from the filter in every
      // field, so keep just one of its differences and a term-level filter
      // bug shows up as a wrong verdict.
      PacketSpec near = match;
      near.src_port = spec.src_port;
      near.payload_len = spec.payload_len;
      switch (rng.Below(3)) {
        case 0: near.src_ip = spec.src_ip; break;
        case 1: near.dst_port = spec.dst_port; break;
        default: near.proto = kIpProtoUdp; break;
      }
      spec = near;
    }
    spec.payload_len = std::max<u16>(spec.payload_len, kMinPayload);
    std::vector<u8> payload(spec.payload_len);
    for (u8& b : payload) b = static_cast<u8>(rng.Next());
    std::memcpy(payload.data(), &i, 4);
    t.frames.push_back(BuildPacketWithPayload(spec, payload.data(),
                                              static_cast<u32>(payload.size())));
    const std::vector<u8>& f = t.frames.back();
    const bool verdict = EvalFilterHost(expr, f.data(), static_cast<u32>(f.size()));
    t.matches.push_back(verdict ? 1 : 0);
    t.expected_matches += verdict ? 1 : 0;
    t.arrival.push_back(at);
    t.digest = Fnv1a(t.digest, f.data(), f.size());
    at += kInterArrival;
  }
  return t;
}

class DpN1 : public Workload {
 public:
  DpN1(u64 seed, double scale)
      : seed_(seed), packets_(std::max<u32>(1'000, static_cast<u32>(kBasePackets * scale))) {}

  Pass RunPass(Spans* spans) override;

 private:
  u64 seed_;
  u32 packets_;
};

Pass DpN1::RunPass(Spans* spans) {
  Pass pass;
  const bool traced = spans != nullptr;
  const auto setup_start = Clock::now();
  int setup_span = traced ? spans->Begin("setup") : -1;

  std::string err;
  std::optional<FilterExpr> expr;
  {
    SpanScope s(spans, "filter.parse");
    expr = ParseFilter(kFilterText, &err);
  }
  if (!expr) {
    pass.Check(false, "parse filter: " + err);
    return pass;
  }
  if (traced) {
    // The compile half of AddFlow, timed on its own: the per-frame and
    // batched entry points compiled and assembled with the dataplane's
    // shared-area layout.
    SpanScope s(spans, "filter.compile");
    const u32 buf_stride = PacketDataplane::Config{}.buf_stride;
    const u32 stride = 4 + ((buf_stride + 3) & ~3u);
    const u32 capacity = std::max(buf_stride + 16, kFilterBatchBase + kMaxFilterBatch * stride);
    AssembleError aerr;
    pass.Check(Assemble(CompileFilterToAsm(*expr, capacity, stride), &aerr).has_value(),
               "assemble filter: " + aerr.ToString());
  }

  Traffic traffic;
  {
    SpanScope s(spans, "traffic.generate");
    traffic = Generate(seed_, packets_, *expr);
  }
  pass.inputs_digest = traffic.digest;

  int machine_span = traced ? spans->Begin("machine") : -1;
  MachineConfig mcfg;
  mcfg.num_cpus = 1;
  Machine machine(mcfg);
  Kernel::Config kcfg;
  kcfg.timer_period_cycles = 25'000;
  Kernel kernel(machine, kcfg);
  KernelExtensionManager kext(kernel);
  Scheduler::Config scfg;
  scfg.slice_cycles = 80'000;
  Scheduler sched(kernel, scfg);
  if (traced) spans->End(machine_span);

  std::string diag;
  std::optional<LinkedImage> img;
  {
    SpanScope s(spans, "asm.assemble");
    img = AssembleAndLink(kPktEchoMWorkerSource, kUserTextBase, {}, &diag);
  }
  if (!img) {
    pass.Check(false, "assemble worker: " + diag);
    return pass;
  }
  std::vector<Pid> pids;
  {
    SpanScope s(spans, "kernel.load_workers");
    for (u32 w = 0; w < kWorkers; ++w) {
      const Pid pid = kernel.CreateProcess();
      if (pid == 0 || !kernel.LoadUserImage(pid, *img, "main", &diag)) {
        pass.Check(false, "load worker: " + diag);
        return pass;
      }
      pids.push_back(pid);
      sched.AddProcess(pid);
    }
  }

  Nic nic(machine.pm(), kernel.pic(), kIrqNic);
  PacketDataplane::Config dcfg;
  dcfg.queues = 1;
  dcfg.napi = true;
  dcfg.filter_batch = 32;
  dcfg.rx_irq_moderation = 16'000;
  dcfg.steering = FlowSteering::kFlowHash;
  PacketDataplane dataplane(kernel, kext, nic, dcfg);
  {
    SpanScope s(spans, "dataplane.add_flow");
    if (!dataplane.AddFlow("filter", kFilterText, pids, &diag)) {
      pass.Check(false, "add flow: " + diag);
      return pass;
    }
  }

  obs::CycleProfile profiler;
  obs::FlightRecorder recorder;
  if (traced) {
    recorder.Reset(machine.num_cpus() + nic.num_queues());
    recorder.SetTrackName(machine.num_cpus(), "nic.q0");
    nic.set_recorder(&recorder, machine.num_cpus());
    profiler.Reset(machine.num_cpus(), machine.cpu(0).cycle_model().tlb_miss_penalty);
    kernel.AttachObservability(&recorder, &profiler);
  }

  // Per delivered frame: verdict, bytes, flow order, latency.
  std::vector<u64> latencies;
  latencies.reserve(traffic.expected_matches);
  std::vector<u8> seen(packets_, 0);
  std::vector<i64> last_seq_of_flow(65536, -1);
  u64 delivered = 0, wrong = 0;
  std::string first_wrong;
  auto wrong_frame = [&](const std::string& why) {
    ++wrong;
    if (first_wrong.empty()) first_wrong = why;
  };
  dataplane.set_tx_hook([&](Kernel& k, Process&, const std::vector<u8>& frame) {
    ++delivered;
    const u32 len = static_cast<u32>(frame.size());
    const u32 off = PayloadOffset(kIpProtoTcp);
    if (!EvalFilterHost(*expr, frame.data(), len) || len < off + 4) {
      wrong_frame("a frame the host filter rejects was delivered");
      return frame;
    }
    u32 seq = 0;
    std::memcpy(&seq, frame.data() + off, 4);
    if (seq >= packets_ || seen[seq] || traffic.frames[seq] != frame || !traffic.matches[seq]) {
      wrong_frame("delivered frame " + std::to_string(seq) + " is corrupt or duplicated");
      return frame;
    }
    seen[seq] = 1;
    const u16 flow = ReadBe16(&frame[kOffSrcPort]);
    if (last_seq_of_flow[flow] >= static_cast<i64>(seq)) {
      wrong_frame("flow " + std::to_string(flow) + " reordered at frame " + std::to_string(seq));
    }
    last_seq_of_flow[flow] = seq;
    const u64 now = k.machine().cpu().cycles();
    latencies.push_back(now - traffic.arrival[seq]);
    if (traced) spans->Instant("dp.tx_frame", seq);
    return frame;
  });

  {
    SpanScope s(spans, "host.inject");
    for (u32 i = 0; i < packets_; ++i) {
      nic.Inject(traffic.frames[i].data(), static_cast<u32>(traffic.frames[i].size()),
                 traffic.arrival[i]);
    }
  }
  bool shutdown_issued = false;
  sched.set_idle_hook([&]() {
    if (shutdown_issued) return false;
    shutdown_issued = true;
    dataplane.Shutdown();
    return true;
  });
  if (traced) spans->End(setup_span);

  const auto run_start = Clock::now();
  Scheduler::RunAllResult result;
  {
    SpanScope s(spans, "sched.run_all");
    result = sched.RunAll(20'000'000'000ull);
  }
  const auto run_end = Clock::now();
  nic.FlushTx();
  pass.setup_s = SecondsBetween(setup_start, run_start);
  pass.run_s = SecondsBetween(run_start, run_end);

  // Conservation: every offered frame is delivered, filtered or dropped for
  // a counted reason, exactly once.
  const PacketDataplane::Stats& st = dataplane.stats();
  const u64 filtered = st.dropped_no_match;
  const u64 drops = st.dropped_queue_full + st.dropped_dead_dest + st.dropped_backlog_full +
                    nic.stats().rx_dropped + st.filter_aborts;
  pass.offered = packets_;
  pass.failed = drops + wrong;
  pass.completed = delivered + filtered - std::min(wrong, delivered);
  pass.Check(delivered + filtered + drops == packets_,
             "conservation: " + std::to_string(delivered) + " delivered + " +
                 std::to_string(filtered) + " filtered + " + std::to_string(drops) +
                 " dropped != " + std::to_string(packets_) + " offered");
  pass.Check(st.tx_frames == delivered, "dataplane tx_frames != frames seen by the TX hook");
  pass.Check(wrong == 0,
             "wrong frames: " + std::to_string(wrong) + " (first: " + first_wrong + ")");
  if (nic.stats().rx_dropped == 0) {
    pass.Check(st.matched == traffic.expected_matches,
               "filter matched " + std::to_string(st.matched) + " frames, host filter " +
                   std::to_string(traffic.expected_matches));
    pass.Check(filtered == packets_ - traffic.expected_matches,
               "filtered count disagrees with the host filter");
  }
  u64 worker_total = 0;
  for (Pid pid : pids) {
    Process* proc = kernel.process(pid);
    const bool exited = proc != nullptr && proc->state == ProcessState::kExited;
    pass.Check(exited, "worker " + std::to_string(pid) + " did not exit");
    if (exited) worker_total += static_cast<u64>(proc->exit_code);
  }
  pass.Check(worker_total == delivered, "workers report " + std::to_string(worker_total) +
                                            " frames served, TX hook saw " +
                                            std::to_string(delivered));

  const u64 busy = obs::BusyCycles(machine.num_cpus(), result.cycles, sched.stats().idle_cycles);
  const u64 ops = std::max<u64>(1, delivered + filtered);
  MetricSet& sim = pass.sim;
  sim.Set("sim_cycles_per_op", static_cast<double>(busy) / static_cast<double>(ops), "cycles");
  SetLatencies(latencies, &sim);
  const u64 slo_limit = static_cast<u64>(kSloP99Us * kCpuMhz);
  const u64 over = static_cast<u64>(
      std::count_if(latencies.begin(), latencies.end(), [&](u64 l) { return l > slo_limit; }));
  sim.Set("sim_slo_miss_ratio",
          static_cast<double>(pass.failed + over) / static_cast<double>(packets_), "ratio");
  sim.Set("sim.slo_p99_limit_us", kSloP99Us, "us");
  sim.Set("op_fail_ratio", static_cast<double>(pass.failed) / static_cast<double>(packets_),
          "ratio");

  obs::MetricsRegistry reg;
  reg.CollectMachine(kernel, &sched);
  reg.CollectNic(nic);
  reg.CollectDataplane(dataplane);
  reg.CollectKext(kext);
  FillLayersFromRegistry(reg, ops, &pass);
  if (traced) {
    reg.CollectProfile(profiler);
    FillLedgerFromProfile(reg, result.cycles, sched.stats().idle_cycles, ops,
                          /*smp_defects=*/false, &pass);
    // Crossing overhead per protected filter call (the batch entry point
    // classifies up to 32 frames per call).
    sim.Set("core.kext.crossing_cycles_per_call",
            st.filter_invocations > 0
                ? static_cast<double>(profiler.BucketTotal(obs::Category::kCrossing)) /
                      static_cast<double>(st.filter_invocations)
                : 0.0,
            "cycles");
    pass.layer.Set("asm.assemble_s", spans->Self("asm.assemble"), "s");
    pass.layer.Set("filter.compile_s", spans->Self("filter.parse") + spans->Self("filter.compile"),
                   "s");
    pass.layer.Set("core.kext.load_s", spans->Self("dataplane.add_flow"), "s");
    pass.layer.Set("host.inject_s", spans->Self("host.inject"), "s");
  }
  return pass;
}

}  // namespace

std::unique_ptr<Workload> MakeDpN1(u64 seed, double scale) {
  return std::make_unique<DpN1>(seed, scale);
}

}  // namespace perfbench
