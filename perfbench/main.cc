// The repository benchmark. One binary runs one workload per invocation:
//
//   perfbench --workload dp_n1|web_soak_smp4|uext_calls --seed N --seconds S
//             --trace 0|1 [--results FILE] [--spans FILE] [--scale F]
//
// It repeats passes (set-up, then the timed call) of the workload for S
// host seconds. Simulated-time metrics are deterministic for a seed and
// must repeat exactly on every pass. Host times are scaled to the reference
// host speed by the probes around each pass (harness.h). Every pass does
// identical work, and interference from other tenants of a shared host only
// ever slows one down, so host_ops_per_s is the median of the fastest
// quarter of the scaled passes: a fixed quantile, which does not rise with
// the number of passes that fit in S seconds. setup_s is the median scaled
// set-up time. With --trace 1 one more pass runs with the observers attached
// (CycleProfile, FlightRecorder, spans); it must reproduce every simulated
// value of the untraced passes, and it supplies the per-layer metrics.
//
// Every metric is printed by name with its unit. The last line of standard
// output is one JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// A failed correctness check makes the exit code nonzero.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"

extern char** environ;

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The end-to-end metrics named in BENCHMARK.json (reported with --trace 0).
const MetricSpec kEndToEnd[] = {
    {"sim_cycles_per_op", "cycles"}, {"sim_latency_p50_us", "us"},
    {"sim_latency_p99_us", "us"},    {"host_ops_per_s", "1/s"},
    {"setup_s", "s"},                {"peak_rss_mb", "MB"},
};

// End-to-end metrics that are printed and written to the results file but
// are not in BENCHMARK.json: they are zero on a healthy run or not defined
// on every workload, so they cannot carry a ratio bound.
const MetricSpec kEndToEndExtra[] = {
    {"sim_latency_p999_us", "us"},
    {"sim_slo_miss_ratio", "ratio"},
    {"op_fail_ratio", "ratio"},
};

// The per-layer metrics named in BENCHMARK.json (reported with --trace 1).
// A layer a workload does not reach reads 0.
const MetricSpec kPerLayer[] = {
    {"sim.user_cycles_per_op", "cycles"},
    {"sim.kernel_cycles_per_op", "cycles"},
    {"sim.filter_body_cycles_per_op", "cycles"},
    {"sim.crossing_cycles_per_op", "cycles"},
    {"sim.irq_cycles_per_op", "cycles"},
    {"sim.tlb_miss_cycles_per_op", "cycles"},
    {"sim.idle_cycles_per_op", "cycles"},
    {"sim.ledger_gap_cycles_per_op", "cycles"},
    {"sim.latency_samples", "count"},
    {"kernel.blocks_per_op", "1/op"},
    {"kernel.ctx_switches_per_op", "1/op"},
    {"kernel.preemptions_per_op", "1/op"},
    {"kernel.timer_irqs_per_op", "1/op"},
    {"smp.idle_share", "ratio"},
    {"smp.steals", "count"},
    {"smp.shootdown_ipis", "count"},
    {"host.run_s", "s"},
    {"host.median_ops_per_s", "1/s"},
    {"host.probe_s", "s"},
    {"net.crossings_per_op", "1/op"},
    {"net.frames_per_crossing", "frames"},
    {"net.frames_per_poll", "frames"},
    {"net.filtered_share", "ratio"},
    {"net.drops.queue_full", "count"},
    {"net.drops.backlog", "count"},
    {"net.drops.rx_ring", "count"},
    {"nic.rx_irqs_per_op", "1/op"},
    {"nic.tx_irqs_per_op", "1/op"},
    {"cpu.insns_per_op", "insn/op"},
    {"cpu.host_sim_mips", "MIPS"},
    {"cpu.trace_insn_share", "ratio"},
    {"cpu.block_insn_share", "ratio"},
    {"cpu.decode_builds", "count"},
    {"cpu.decode_write_invalidations", "count"},
    {"cpu.tlb_miss_ratio", "ratio"},
    {"cpu.dtlb_hit_ratio", "ratio"},
    {"core.uext.crossing_cycles", "cycles"},
    {"core.kext.crossing_cycles_per_call", "cycles"},
    {"core.kext.load_s", "s"},
    {"core.uext.seg_dlopen_s", "s"},
    {"asm.assemble_s", "s"},
    {"filter.compile_s", "s"},
    {"host.inject_s", "s"},
    {"web.keepalive_reuse_share", "ratio"},
    {"web.connections", "count"},
    {"host.trace_overhead_s", "s"},
};

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 1.0;
  std::string results_path;
  std::string spans_path;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload dp_n1|web_soak_smp4|uext_calls "
               "--seed N --seconds S --trace 0|1 [--results FILE] [--spans FILE] "
               "[--scale F]\n",
               why);
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      o.trace = value == "1";
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
    } else if (flag == "--scale") {
      o.scale = std::strtod(value.c_str(), &end);
    } else if (flag == "--results") {
      o.results_path = value;
    } else if (flag == "--spans") {
      o.spans_path = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      Usage(("bad value for " + flag + ": " + value).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (!(o.seconds >= 0) || !(o.scale > 0)) Usage("--seconds must be >= 0, --scale > 0");
  return o;
}

// Shortest text that reads back as the same double.
std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i > 0 ? ", " : "") + Quote(metrics[i].name) + ": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

// The run fingerprint: what a result must not be silently compared across.
std::vector<std::pair<std::string, std::string>> Fingerprint(const Options& o) {
  std::vector<std::pair<std::string, std::string>> fp;
  fp.emplace_back("workload", o.workload);
  fp.emplace_back("seed", std::to_string(o.seed));
  fp.emplace_back("scale", Num(o.scale));
  fp.emplace_back("host_cores", std::to_string(std::thread::hardware_concurrency()));
  fp.emplace_back("build_type", PERFBENCH_BUILD_TYPE);
#if defined(__clang__)
  fp.emplace_back("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  fp.emplace_back("compiler", std::string("gcc ") + __VERSION__);
#else
  fp.emplace_back("compiler", "unknown");
#endif
  std::map<std::string, std::string> knobs;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.compare(0, 10, "PALLADIUM_") != 0) continue;
    const size_t eq = kv.find('=');
    knobs[kv.substr(0, eq)] = eq == std::string::npos ? "" : kv.substr(eq + 1);
  }
  std::string knob_text;
  for (const auto& [k, v] : knobs) knob_text += (knob_text.empty() ? "" : " ") + k + "=" + v;
  fp.emplace_back("palladium_knobs", knob_text.empty() ? "(none)" : knob_text);
  return fp;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

// Bitwise comparison of two passes' simulated values; returns mismatches.
std::vector<std::string> CompareSim(const MetricSet& want, const MetricSet& got,
                                    const std::string& what) {
  std::vector<std::string> diffs;
  for (const Metric& m : want.all()) {
    const Metric* g = got.Find(m.name);
    if (g == nullptr) {
      diffs.push_back(what + ": " + m.name + " missing");
    } else if (std::memcmp(&g->value, &m.value, sizeof(double)) != 0) {
      diffs.push_back(what + ": " + m.name + " = " + Num(g->value) + ", expected " +
                      Num(m.value));
    }
  }
  return diffs;
}

// Everything one invocation measured, as printed and written.
struct Report {
  std::vector<std::pair<std::string, std::string>> fingerprint;
  bool trace = false;
  double elapsed_s = 0;
  // Host seconds per untraced pass, and the mean of the probes around it.
  std::vector<double> setup_s, run_s, probe_s;
  u64 inputs_digest = 0;
  MetricSet simulated;  // pass 1's simulated values (every pass agrees)
  MetricSet e2e, e2e_extra, layer;
  std::vector<std::string> not_reached;  // per-layer metrics the workload lacks
  std::vector<std::string> errors, known_failures;
  size_t spans = 0;
  u64 attempted = 0, failed = 0;

  bool correct() const { return errors.empty(); }
};

// The median of the largest quarter of `values` (about their 87.5th
// percentile).
double MedianOfTopQuarter(std::vector<double> values) {
  std::sort(values.rbegin(), values.rend());
  values.resize(std::max<size_t>(1, (values.size() + 3) / 4));
  return Median(values);
}

std::string JsonList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) out += (i > 0 ? ", " : "") + Num(values[i]);
  return out + "]";
}

std::string JsonList(const std::vector<std::string>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) out += (i > 0 ? ", " : "") + Quote(values[i]);
  return out + "]";
}

void PrintMetric(const Metric& m, const char* note) {
  std::printf("  %-36s %18s %-8s%s\n", m.name.c_str(), Num(m.value).c_str(), m.unit.c_str(),
              note);
}

void PrintMinMedianMax(const char* what, const std::vector<double>& v) {
  std::printf("  %-24s min %.4f  median %.4f  max %.4f\n", what,
              *std::min_element(v.begin(), v.end()), Median(v),
              *std::max_element(v.begin(), v.end()));
}

void PrintReport(const Report& r, const std::string& workload) {
  std::printf("\n%zu untraced passes in %.2f s; simulated values identical across passes: %s\n",
              r.run_s.size(), r.elapsed_s, r.correct() ? "yes" : "see errors");
  PrintMinMedianMax("host set-up s per pass", r.setup_s);
  PrintMinMedianMax("host run s per pass", r.run_s);
  PrintMinMedianMax("host probe s per pass", r.probe_s);
  std::printf("  host times below are scaled to a probe of %.4f s\n", kProbeNominalS);

  std::printf("\nend-to-end\n");
  for (const Metric& m : r.e2e.all()) PrintMetric(m, "");
  for (const MetricSpec& m : kEndToEndExtra) {
    const Metric* v = r.e2e_extra.Find(m.name);
    if (v != nullptr) {
      PrintMetric(*v, "");
    } else {
      std::printf("  %-36s %18s %-8s(not defined for this workload)\n", m.name, "n/a", m.unit);
    }
  }
  std::printf("\nworkload detail\n");
  for (const Metric& m : r.simulated.all()) {
    if (m.name.compare(0, 4, "acc.") == 0 || m.name.compare(0, 4, "sim.") == 0) {
      PrintMetric(m, "");
    }
  }
  if (workload != "uext_calls") {
    std::printf("  accuracy: the paper gives no dataplane or soak reference, so these "
                "figures are unvalidated\n");
  }
  if (r.trace) {
    std::printf("\nper layer (traced pass; host times from its spans and the untraced "
                "medians)\n");
    for (const Metric& m : r.layer.all()) {
      const bool missing =
          std::find(r.not_reached.begin(), r.not_reached.end(), m.name) != r.not_reached.end();
      PrintMetric(m, missing ? "(layer not reached)" : "");
    }
    std::printf("  spans recorded: %zu\n", r.spans);
  }
  for (const std::string& e : r.known_failures) {
    std::printf("CHECK FAILED, known defect (not counted against the run): %s\n", e.c_str());
  }
  for (const std::string& e : r.errors) std::printf("CHECK FAILED: %s\n", e.c_str());
}

void WriteResults(const Report& r, const std::string& path) {
  std::ofstream out(path);
  out << "{\n  \"fingerprint\": {";
  for (size_t i = 0; i < r.fingerprint.size(); ++i) {
    out << (i > 0 ? ", " : "") << Quote(r.fingerprint[i].first) << ": "
        << Quote(r.fingerprint[i].second);
  }
  out << "},\n  \"trace\": " << (r.trace ? 1 : 0)
      << ",\n  \"correct\": " << (r.correct() ? "true" : "false")
      << ",\n  \"attempted\": " << r.attempted << ",\n  \"failed\": " << r.failed
      << ",\n  \"passes\": " << r.run_s.size()
      << ",\n  \"pass_setup_s\": " << JsonList(r.setup_s)
      << ",\n  \"pass_run_s\": " << JsonList(r.run_s)
      << ",\n  \"pass_probe_s\": " << JsonList(r.probe_s)
      << ",\n  \"inputs_digest\": " << Quote(std::to_string(r.inputs_digest))
      << ",\n  \"errors\": " << JsonList(r.errors)
      << ",\n  \"known_failures\": " << JsonList(r.known_failures)
      << ",\n  \"end_to_end\": " << MetricsJson(r.e2e.all())
      << ",\n  \"end_to_end_extra\": " << MetricsJson(r.e2e_extra.all())
      << ",\n  \"simulated\": " << MetricsJson(r.simulated.all())
      << ",\n  \"per_layer\": " << MetricsJson(r.layer.all()) << "\n}\n";
  if (!out) std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
}

int Main(int argc, char** argv) {
  const Options opt = ParseArgs(argc, argv);
  std::unique_ptr<Workload> workload;
  if (opt.workload == "dp_n1") {
    workload = MakeDpN1(opt.seed, opt.scale);
  } else if (opt.workload == "web_soak_smp4") {
    workload = MakeWebSoakSmp4(opt.seed, opt.scale);
  } else if (opt.workload == "uext_calls") {
    workload = MakeUextCalls(opt.seed, opt.scale);
  } else {
    Usage(("unknown workload " + opt.workload).c_str());
  }

  Report r;
  r.trace = opt.trace;
  r.fingerprint = Fingerprint(opt);
  std::printf("perfbench %s\n", opt.workload.c_str());
  for (const auto& [k, v] : r.fingerprint) std::printf("  %-16s %s\n", k.c_str(), v.c_str());
  std::fflush(stdout);

  // Untraced passes for the measured time; at least three, so every run
  // checks determinism. A failed check ends the run.
  std::vector<Pass> passes;
  const auto start = Clock::now();
  do {
    const double probe_before = HostProbeSeconds();
    passes.push_back(workload->RunPass(nullptr));
    r.probe_s.push_back(0.5 * (probe_before + HostProbeSeconds()));
    const Pass& p = passes.back();
    const std::string label = "pass " + std::to_string(passes.size());
    for (const std::string& e : p.errors) r.errors.push_back(label + ": " + e);
    if (passes.size() > 1) {
      for (const std::string& d : CompareSim(passes.front().sim, p.sim, label + " vs pass 1")) {
        r.errors.push_back(d);
      }
      if (p.inputs_digest != passes.front().inputs_digest) {
        r.errors.push_back(label + ": inputs differ from pass 1 for one seed");
      }
    }
  } while (r.errors.empty() &&
           (passes.size() < 3 || SecondsBetween(start, Clock::now()) < opt.seconds));
  r.elapsed_s = SecondsBetween(start, Clock::now());
  const Pass& first = passes.front();
  r.simulated = first.sim;
  r.inputs_digest = first.inputs_digest;

  std::vector<double> ops_per_s, scaled_setup_s, scaled_ops_per_s;
  for (size_t i = 0; i < passes.size(); ++i) {
    const Pass& p = passes[i];
    const double rate = p.run_s > 0 ? static_cast<double>(p.completed) / p.run_s : 0;
    const double host_speed = r.probe_s[i] / kProbeNominalS;  // > 1: host slower than reference
    r.setup_s.push_back(p.setup_s);
    r.run_s.push_back(p.run_s);
    ops_per_s.push_back(rate);
    scaled_setup_s.push_back(p.setup_s / host_speed);
    scaled_ops_per_s.push_back(rate * host_speed);
    r.attempted += p.offered;
    r.failed += p.failed;
  }
  const double median_run_s = Median(r.run_s);

  Spans spans;
  Pass traced;
  if (opt.trace && r.correct()) {
    traced = workload->RunPass(&spans);
    for (const std::string& e : traced.errors) r.errors.push_back("traced pass: " + e);
    r.known_failures = traced.known_failures;
    for (const std::string& d : CompareSim(first.sim, traced.sim, "traced vs untraced")) {
      r.errors.push_back(d);
    }
    r.attempted += traced.offered;
    r.failed += traced.failed;
    r.spans = spans.size();
  }

  // End-to-end: the simulated values of pass 1, the median of the fastest
  // quarter of the scaled passes and the median scaled set-up.
  for (const MetricSpec& m : kEndToEnd) {
    if (first.sim.Has(m.name)) r.e2e.Set(m.name, first.sim.Get(m.name), m.unit);
  }
  r.e2e.Set("host_ops_per_s", MedianOfTopQuarter(scaled_ops_per_s), "1/s");
  r.e2e.Set("setup_s", Median(scaled_setup_s), "s");
  r.e2e.Set("peak_rss_mb", PeakRssMb(), "MB");
  for (const MetricSpec& m : kEndToEndExtra) {
    if (first.sim.Has(m.name)) r.e2e_extra.Set(m.name, first.sim.Get(m.name), m.unit);
  }

  if (opt.trace) {
    MetricSet host;
    host.Set("host.run_s", median_run_s, "s");
    host.Set("host.median_ops_per_s", Median(ops_per_s), "1/s");
    host.Set("host.probe_s", Median(r.probe_s), "s");
    host.Set("cpu.host_sim_mips",
             median_run_s > 0 ? traced.layer.Get("cpu.instructions") / median_run_s / 1e6 : 0,
             "MIPS");
    host.Set("host.trace_overhead_s", traced.run_s - median_run_s, "s");
    for (const MetricSpec& m : kPerLayer) {
      const Metric* v = traced.sim.Find(m.name);
      if (v == nullptr) v = traced.layer.Find(m.name);
      if (v == nullptr) v = host.Find(m.name);
      if (v == nullptr) r.not_reached.push_back(m.name);
      r.layer.Set(m.name, v != nullptr ? v->value : 0.0, m.unit);
    }
    if (!opt.spans_path.empty() && !spans.WriteJsonl(opt.spans_path)) {
      r.errors.push_back("cannot write spans to " + opt.spans_path);
    }
  }

  // A failed check is a failed op too, never a clean result.
  if (!r.correct() && r.failed == 0) r.failed = 1;
  r.attempted = std::max<u64>(r.attempted, 1);

  PrintReport(r, opt.workload);
  if (!opt.results_path.empty()) WriteResults(r, opt.results_path);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              r.correct() ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              MetricsJson(opt.trace ? r.layer.all() : r.e2e.all()).c_str());
  return r.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
