// Shared benchmark plumbing: a Palladium system fixture (kernel + dynamic
// linker + user-extension runtime) plus a cycle-checkpoint syscall so that
// in-simulation code can bracket regions of interest with
//   int $0x80 (eax = 240)
// and the host collects the simulated-cycle timestamps. Deltas between
// checkpoint *pairs* cancel the checkpoint overhead itself.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <unistd.h>  // environ

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/asm/assembler.h"
#include "src/core/kernel_ext.h"
#include "src/core/user_ext.h"
#include "src/dl/dynamic_linker.h"
#include "src/kernel/kernel.h"
#include "src/obs/metrics.h"

namespace palladium {

// --- Machine-readable results -------------------------------------------------
// Every bench binary writes BENCH_<name>.json (flat metrics object) next to
// its human-readable table, so CI and trend tooling can consume the numbers
// without scraping stdout. BENCH_JSON_DIR overrides the output directory
// (default: the current working directory). A "context" object fingerprints
// the host and build the numbers came from, so host-time metrics are never
// compared across machines unknowingly.

inline std::string BenchJsonPath(const std::string& bench_name) {
  const char* dir = std::getenv("BENCH_JSON_DIR");
  return std::string(dir != nullptr ? dir : ".") + "/BENCH_" + bench_name + ".json";
}

class BenchJson {
 public:
  explicit BenchJson(std::string bench_name) : name_(std::move(bench_name)) {}

  void Set(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    metrics_.emplace_back(key, buf);
  }
  void Set(const std::string& key, u64 value) {
    metrics_.emplace_back(key, std::to_string(value));
  }
  void Set(const std::string& key, u32 value) { Set(key, static_cast<u64>(value)); }
  void Set(const std::string& key, int value) {
    metrics_.emplace_back(key, std::to_string(value));
  }

  // Writes {"bench": <name>, "context": {...}, "metrics": {...}}; returns
  // the path.
  std::string Write() const {
    const std::string path = BenchJsonPath(name_);
    std::ofstream out(path);
    out << "{\n  \"bench\": \"" << name_ << "\",\n  \"context\": {\n";
    out << "    \"host_cores\": " << std::thread::hardware_concurrency() << ",\n";
    // PALLADIUM_BUILD_TYPE is the CMake build type, set by CMakeLists.txt.
    out << "    \"build_type\": " << Quote(PALLADIUM_BUILD_TYPE) << ",\n";
    out << "    \"compiler\": " << Quote(Compiler()) << ",\n";
    out << "    \"palladium_env\": {";
    const auto env = PalladiumEnv();
    for (auto it = env.begin(); it != env.end(); ++it) {
      out << (it == env.begin() ? "" : ", ") << Quote(it->first) << ": " << Quote(it->second);
    }
    out << "}\n  },\n  \"metrics\": {\n";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      out << "    \"" << metrics_[i].first << "\": " << metrics_[i].second
          << (i + 1 < metrics_.size() ? "," : "") << "\n";
    }
    out << "  }\n}\n";
    return path;
  }

 private:
  static std::string Quote(const std::string& s) {
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
  static std::string Compiler() {
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
  }
  // Every PALLADIUM_* environment variable that is set: the knobs the run
  // was made under.
  static std::map<std::string, std::string> PalladiumEnv() {
    std::map<std::string, std::string> knobs;
    for (char** e = environ; *e != nullptr; ++e) {
      const std::string kv = *e;
      if (kv.compare(0, 10, "PALLADIUM_") != 0) continue;
      const size_t eq = kv.find('=');
      knobs[kv.substr(0, eq)] = eq == std::string::npos ? "" : kv.substr(eq + 1);
    }
    return knobs;
  }

  std::string name_;
  std::vector<std::pair<std::string, std::string>> metrics_;
};

// Federates a MetricsRegistry snapshot into a bench's JSON under the "obs."
// prefix, keeping the bench's own headline metrics separate from the
// registry's subsystem counters.
inline void EmitMetrics(const obs::MetricsRegistry& registry, BenchJson* json) {
  for (const auto& [name, v] : registry.values()) {
    if (v.integral) {
      json->Set("obs." + name, v.u);
    } else {
      json->Set("obs." + name, v.d);
    }
  }
}

inline constexpr u32 kSysBenchMark = 240;
inline constexpr double kCpuMhz = 200.0;  // the paper's Pentium 200

inline std::string BenchAsmPrelude() {
  return R"(
  .equ SYS_EXIT, 1
  .equ SYS_WRITE, 4
  .equ SYS_MMAP, 90
  .equ SYS_SIGACTION, 67
  .equ SYS_INIT_PL, 200
  .equ SYS_SET_RANGE, 201
  .equ SYS_SET_CALL_GATE, 202
  .equ SYS_SEG_DLOPEN, 212
  .equ SYS_SEG_DLSYM, 213
  .equ SYS_DLSYM, 214
  .equ SYS_SEG_DLCLOSE, 215
  .equ SYS_DLOPEN_UNPROT, 216
  .equ SYS_EXPOSE_SERVICE, 217
  .equ SYS_BENCH_MARK, 240
  .equ INT_SYSCALL, 0x80
)";
}

// A complete Palladium machine with cycle checkpoints.
class BenchSystem {
 public:
  BenchSystem() : kernel_(machine_), dl_(kernel_), uext_(kernel_, dl_), kext_(kernel_) {
    kernel_.RegisterSyscall(kSysBenchMark, [this](Kernel& k, u32, u32, u32) {
      marks_.push_back(k.cpu().cycles());
      k.ReturnFromGate(0);
    });
  }

  Machine& machine() { return machine_; }
  Kernel& kernel() { return kernel_; }
  DynamicLinker& dl() { return dl_; }
  UserExtensionRuntime& uext() { return uext_; }
  KernelExtensionManager& kext() { return kext_; }
  std::vector<u64>& marks() { return marks_; }

  void RegisterObject(const std::string& name, const std::string& source) {
    AssembleError aerr;
    auto obj = Assemble(BenchAsmPrelude() + source, &aerr);
    if (!obj) {
      std::fprintf(stderr, "assemble %s: %s\n", name.c_str(), aerr.ToString().c_str());
      std::exit(1);
    }
    dl_.RegisterObject(name, *obj);
  }

  // Loads and runs an app program to completion; dies loudly on failure.
  i32 RunApp(const std::string& source, u64 budget = 2'000'000'000ull) {
    std::string diag;
    auto img = AssembleAndLink(BenchAsmPrelude() + source, kUserTextBase, {}, &diag);
    if (!img) {
      std::fprintf(stderr, "assemble app: %s\n", diag.c_str());
      std::exit(1);
    }
    Pid pid = kernel_.CreateProcess();
    if (pid == 0 || !kernel_.LoadUserImage(pid, *img, "main", &diag)) {
      std::fprintf(stderr, "load app: %s\n", diag.c_str());
      std::exit(1);
    }
    RunResult r = kernel_.RunProcess(pid, budget);
    if (r.outcome != RunOutcome::kExited) {
      std::fprintf(stderr, "app did not exit cleanly: %s\n", r.kill_reason.c_str());
      std::exit(1);
    }
    last_pid_ = pid;
    return r.exit_code;
  }

  Pid last_pid() const { return last_pid_; }

  // Snapshots this system's subsystem counters (per-CPU TLB/decode/engine
  // stats, kernel SMP stats) into `json` under the "obs." prefix.
  void EmitSystemMetrics(BenchJson* json) const {
    obs::MetricsRegistry registry;
    registry.CollectMachine(kernel_, nullptr);
    EmitMetrics(registry, json);
  }

  // Interval between marks [2k] and [2k+1] minus the empty-pair baseline
  // (marks [0],[1]); callers lay out their checkpoints accordingly.
  u64 PairedDelta(size_t pair_index) const {
    const u64 baseline = marks_[1] - marks_[0];
    const u64 raw = marks_[2 * pair_index + 1] - marks_[2 * pair_index];
    return raw > baseline ? raw - baseline : 0;
  }

 private:
  Machine machine_;
  Kernel kernel_;
  DynamicLinker dl_;
  UserExtensionRuntime uext_;
  KernelExtensionManager kext_;
  std::vector<u64> marks_;
  Pid last_pid_ = 0;
};

inline double CyclesToUs(double cycles) { return cycles / kCpuMhz; }

}  // namespace palladium

#endif  // BENCH_BENCH_UTIL_H_
