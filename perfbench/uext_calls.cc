// uext_calls: one process calls a user-level extension that it loaded with
// seg_dlopen, so the extension runs behind page PPL plus segment protection
// (paper Sections 4.4-4.5). No NIC, scheduler or SMP is involved.
//
// The extension reverses a string in a shared buffer in place. A seeded
// sequence of payload sizes runs from 0 B null calls up to 4 KB, and
// includes the paper's Table 2 sizes. Each call is made twice: through the
// protected entry (seg_dlsym) and through the raw entry (dlsym). The raw
// call reverses the string back, so both calls do the same body work and
// their difference is the cost of the protection crossing.
//
// A mark syscall brackets each call. At every mark the host takes the
// simulated cycle and TLB-miss counters, loads the next string, and checks
// the buffer: after the protected call it must hold the host reverse of the
// string, and after the raw call the original string again. In the traced
// pass it also snapshots the CycleProfile's categories, so the ledger is
// the profile's own attribution of the protected calls.
#include <algorithm>
#include <array>

#include "harness.h"
#include "src/asm/assembler.h"
#include "src/core/user_ext.h"
#include "src/dl/dynamic_linker.h"
#include "src/kernel/kernel.h"
#include "src/obs/metrics.h"
#include "src/obs/profile.h"
#include "src/obs/trace.h"

namespace perfbench {
namespace {

using namespace palladium;

constexpr u32 kBaseCalls = 2'000;
constexpr u32 kMaxSize = 4096;
constexpr u32 kPoolBytes = 2 * kMaxSize;
constexpr u32 kStrata = 16;
constexpr u32 kSysMark = 240;

// Table 2 of the paper: protected-call string reverse on the Pentium 200.
constexpr double kTable2Us32 = 2.79;
constexpr double kTable2Us256 = 15.97;

// Mark kinds (ebx of the mark syscall).
enum MarkKind : u32 {
  kMarkBuffer = 1,       // ecx = shared buffer address
  kMarkDlopenBegin = 2,
  kMarkDlopenEnd = 3,    // ecx = seg_dlopen handle
  kMarkProtBegin = 4,    // host loads the next string
  kMarkProtEnd = 5,      // host checks the reversed string
  kMarkRawBegin = 6,
  kMarkRawEnd = 7,       // host checks the restored string; eax = calls remain
};

// Same body as bench/bench_table2.cc: arg -> [u32 length][bytes].
constexpr char kReverseExt[] = R"(
  .global reverse
reverse:
  push %ebp
  mov %esp, %ebp
  push %ebx
  push %esi
  push %edi
  ld 8(%ebp), %ebx     ; buffer: [len][bytes...]
  ld 0(%ebx), %ecx     ; len
  lea 4(%ebx), %esi    ; first byte
  lea 3(%ebx,%ecx,1), %edi  ; last byte (4 + len - 1)
rev_loop:
  cmp %edi, %esi
  jae rev_done
  ld8 0(%esi), %eax
  ld8 0(%edi), %edx
  st8 %edx, 0(%esi)
  st8 %eax, 0(%edi)
  inc %esi
  dec %edi
  jmp rev_loop
rev_done:
  pop %edi
  pop %esi
  pop %ebx
  pop %ebp
  ret
)";

constexpr char kApp[] = R"(
  .global main
main:
  mov $200, %eax          ; SYS_INIT_PL
  int $0x80
  mov $90, %eax           ; SYS_MMAP: the shared string buffer, two pages
  mov $0, %ebx
  mov $0x2000, %ecx
  mov $3, %edx
  int $0x80
  mov %eax, %ebp          ; buffer base, kept in %ebp throughout
  sti $0, 0(%ebp)
  sti $0, 4096(%ebp)
  mov $201, %eax          ; SYS_SET_RANGE: shared with the extension (PPL 1)
  mov %ebp, %ebx
  mov $0x2000, %ecx
  mov $1, %edx
  int $0x80
  mov $240, %eax
  mov $1, %ebx            ; mark: buffer address
  mov %ebp, %ecx
  int $0x80
  mov $240, %eax
  mov $2, %ebx            ; mark: seg_dlopen begins
  int $0x80
  mov $212, %eax          ; SYS_SEG_DLOPEN
  mov $extname, %ebx
  int $0x80
  mov %eax, %esi
  mov $240, %eax
  mov $3, %ebx            ; mark: seg_dlopen done
  mov %esi, %ecx
  int $0x80
  mov $213, %eax          ; SYS_SEG_DLSYM: protected entry
  mov %esi, %ebx
  mov $fnname, %ecx
  int $0x80
  mov %eax, %edi
  mov $214, %eax          ; SYS_DLSYM: raw entry
  mov %esi, %ebx
  mov $fnname, %ecx
  int $0x80
  mov %eax, %esi
  push %ebp               ; warm both paths
  call *%esi
  pop %ecx
  push %ebp
  call *%edi
  pop %ecx
next_call:
  mov $240, %eax
  mov $4, %ebx            ; mark: protected call begins
  int $0x80
  push %ebp
  call *%edi
  pop %ecx
  mov $240, %eax
  mov $5, %ebx            ; mark: protected call done
  int $0x80
  mov $240, %eax
  mov $6, %ebx            ; mark: raw call begins
  int $0x80
  push %ebp
  call *%esi
  pop %ecx
  mov $240, %eax
  mov $7, %ebx            ; mark: raw call done
  int $0x80
  cmp $0, %eax
  jne next_call
  mov $1, %eax            ; SYS_EXIT
  mov $0, %ebx
  int $0x80
  .data
extname:
  .asciz "revext"
fnname:
  .asciz "reverse"
)";

struct Call {
  u32 size = 0;
  u32 offset = 0;  // into the string pool
};

struct Inputs {
  std::vector<Call> calls;
  std::vector<u8> pool;
  u64 digest = kFnvBasis;
};

// A fixed share of calls per size band, in a seeded order; the Table 2
// sizes appear exactly. Sizes are stratified within each band (draws
// spread evenly over kStrata slices), so the size mix, and with it every
// simulated mean and percentile, moves only slightly from seed to seed.
Inputs Generate(u64 seed, u32 n) {
  struct Band {
    u32 lo, hi;
    u32 percent;
  };
  static const Band kBands[] = {
      {0, 0, 10},       {1, 31, 10},      {32, 32, 2},       {64, 64, 2},
      {128, 128, 2},    {256, 256, 2},    {32, 127, 14},     {128, 511, 15},
      {512, 1023, 15},  {1024, 2047, 15}, {2048, kMaxSize, 13},
  };
  Rng rng(seed);
  Inputs in;
  in.pool.resize(kPoolBytes);
  for (u8& b : in.pool) b = static_cast<u8>(rng.Next());
  for (const Band& band : kBands) {
    const u32 count = std::max<u32>(1, n * band.percent / 100);
    const u64 span = band.hi - band.lo + 1;
    for (u32 i = 0; i < count; ++i) {
      Call c;
      const u64 slice = i % kStrata;
      const u64 slice_lo = span * slice / kStrata, slice_hi = span * (slice + 1) / kStrata;
      c.size = band.lo + static_cast<u32>(slice_lo) +
               rng.Below(static_cast<u32>(std::max<u64>(1, slice_hi - slice_lo)));
      c.offset = rng.Below(kPoolBytes - c.size + 1);
      in.calls.push_back(c);
    }
  }
  for (size_t i = in.calls.size(); i > 1; --i) {
    std::swap(in.calls[i - 1], in.calls[rng.Below(static_cast<u32>(i))]);
  }
  in.digest = Fnv1a(in.digest, in.pool.data(), in.pool.size());
  in.digest = Fnv1a(in.digest, in.calls.data(), in.calls.size() * sizeof(Call));
  return in;
}

class UextCalls : public Workload {
 public:
  UextCalls(u64 seed, double scale)
      : inputs_(Generate(seed, std::max<u32>(100, static_cast<u32>(kBaseCalls * scale)))) {}

  Pass RunPass(Spans* spans) override;

 private:
  Inputs inputs_;
};

Pass UextCalls::RunPass(Spans* spans) {
  Pass pass;
  const bool traced = spans != nullptr;
  const std::vector<Call>& calls = inputs_.calls;
  const u32 n = static_cast<u32>(calls.size());
  pass.inputs_digest = inputs_.digest;

  const auto setup_start = Clock::now();
  int setup_span = traced ? spans->Begin("setup") : -1;
  int machine_span = traced ? spans->Begin("machine") : -1;
  MachineConfig mcfg;
  mcfg.num_cpus = 1;
  Machine machine(mcfg);
  Kernel kernel(machine);
  DynamicLinker dl(kernel);
  UserExtensionRuntime uext(kernel, dl);
  if (traced) spans->End(machine_span);

  std::string diag;
  std::optional<ObjectFile> ext;
  std::optional<LinkedImage> img;
  {
    SpanScope s(spans, "asm.assemble");
    AssembleError aerr;
    ext = Assemble(kReverseExt, &aerr);
    if (!ext) diag = aerr.ToString();
    if (ext) img = AssembleAndLink(kApp, kUserTextBase, {}, &diag);
  }
  if (!ext || !img) {
    pass.Check(false, "assemble: " + diag);
    return pass;
  }
  dl.RegisterObject("revext", *ext);
  Pid pid = 0;
  {
    SpanScope s(spans, "kernel.load_app");
    pid = kernel.CreateProcess();
    if (pid == 0 || !kernel.LoadUserImage(pid, *img, "main", &diag)) {
      pass.Check(false, "load app: " + diag);
      return pass;
    }
  }

  obs::CycleProfile profiler;
  obs::FlightRecorder recorder;
  // The profile's categories at a mark. Flushing the open span into its own
  // category moves no cycles; it only makes the buckets current.
  using Buckets = std::array<u64, obs::kNumCategories>;
  auto snapshot = [&](u64 now, u64 misses) {
    Buckets b{};
    profiler.Set(0, now, misses, profiler.Current(0));
    for (u32 c = 0; c < obs::kNumCategories; ++c) {
      b[c] = profiler.bucket(0, static_cast<obs::Category>(c));
    }
    return b;
  };
  // Per category, the protected calls' cycles net of the mark overhead.
  std::array<i64, obs::kNumCategories> ledger{};
  Buckets prot_begin_b{}, prot_end_b{};

  // Mark-syscall state: per call the protected (P) and raw (U) cycles net
  // of the mark overhead.
  std::vector<u64> prot(n), raw(n);
  u32 buffer = 0, next = 0;
  u64 begin_cycles = 0, prot_end = 0, wrong = 0;
  i64 handle = 0;
  std::string first_wrong;
  int call_span = -1, dlopen_span = -1;
  std::vector<u8> expect, got;
  auto fail = [&](const std::string& why) {
    ++wrong;
    if (first_wrong.empty()) first_wrong = why;
  };
  auto read_buffer = [&](Kernel& k, u32 size) {
    u32 len = 0;
    got.assign(size, 0);
    const bool ok = k.CopyFromUser(*k.current(), buffer, &len, 4) &&
                    k.CopyFromUser(*k.current(), buffer + 4, got.data(), size);
    return ok && len == size;
  };
  kernel.RegisterSyscall(kSysMark, [&](Kernel& k, u32 kind, u32 arg, u32) {
    const u64 now = k.cpu().cycles();
    const u64 misses = k.cpu().tlb_stats().misses;
    u32 ret = 0;
    switch (kind) {
      case kMarkBuffer:
        buffer = arg;
        break;
      case kMarkDlopenBegin:
        if (traced) dlopen_span = spans->Begin("core.uext.seg_dlopen");
        break;
      case kMarkDlopenEnd:
        if (traced) spans->End(dlopen_span);
        handle = static_cast<i32>(arg);
        break;
      case kMarkProtBegin: {
        if (next >= n) {
          fail("more calls than inputs");
          break;
        }
        if (traced) call_span = spans->Begin("uext.call", next);
        const Call& c = calls[next];
        const u8* s = inputs_.pool.data() + c.offset;
        if (!k.CopyToUser(*k.current(), buffer, &c.size, 4) ||
            (c.size > 0 && !k.CopyToUser(*k.current(), buffer + 4, s, c.size))) {
          fail("cannot load call " + std::to_string(next) + "'s string");
        }
        begin_cycles = now;
        if (traced) prot_begin_b = snapshot(now, misses);
        break;
      }
      case kMarkProtEnd: {
        prot[next] = now - begin_cycles;
        prot_end = now;
        if (traced) prot_end_b = snapshot(now, misses);
        const Call& c = calls[next];
        const u8* s = inputs_.pool.data() + c.offset;
        expect.assign(s, s + c.size);
        std::reverse(expect.begin(), expect.end());
        if (!read_buffer(k, c.size) || got != expect) {
          fail("protected call " + std::to_string(next) + " (" + std::to_string(c.size) +
               " B) did not reverse its string");
        }
        break;
      }
      case kMarkRawBegin: {
        // The empty pair (protected end -> raw begin) is the mark overhead
        // that every bracketed interval carries.
        const u64 overhead = now - prot_end;
        prot[next] -= std::min(prot[next], overhead);
        begin_cycles = now;
        if (traced) {
          const Buckets b = snapshot(now, misses);
          for (u32 c = 0; c < obs::kNumCategories; ++c) {
            ledger[c] += static_cast<i64>(prot_end_b[c] - prot_begin_b[c]) -
                         static_cast<i64>(b[c] - prot_end_b[c]);
          }
        }
        break;
      }
      case kMarkRawEnd: {
        const u64 overhead = begin_cycles - prot_end;
        raw[next] = (now - begin_cycles) - std::min(now - begin_cycles, overhead);
        const Call& c = calls[next];
        const u8* s = inputs_.pool.data() + c.offset;
        if (!read_buffer(k, c.size) || !std::equal(got.begin(), got.end(), s)) {
          fail("raw call " + std::to_string(next) + " (" + std::to_string(c.size) +
               " B) did not restore its string");
        }
        if (traced) spans->End(call_span);
        ++next;
        ret = next < n ? 1 : 0;
        break;
      }
      default:
        fail("unknown mark " + std::to_string(kind));
    }
    k.ReturnFromGate(ret);
  });

  if (traced) {
    recorder.Reset(1);
    profiler.Reset(1, machine.cpu(0).cycle_model().tlb_miss_penalty);
    kernel.AttachObservability(&recorder, &profiler);
    profiler.Begin(0, machine.cpu(0).cycles(), machine.cpu(0).tlb_stats().misses,
                   obs::Category::kUser);
  }
  if (traced) spans->End(setup_span);

  const auto run_start = Clock::now();
  const u64 start_cycles = machine.cpu(0).cycles();
  RunResult r;
  {
    SpanScope s(spans, "kernel.run_process");
    r = kernel.RunProcess(pid, 20'000'000'000ull);
  }
  const auto run_end = Clock::now();
  pass.setup_s = SecondsBetween(setup_start, run_start);
  pass.run_s = SecondsBetween(run_start, run_end);
  if (traced) profiler.Finish(0, machine.cpu(0).cycles(), machine.cpu(0).tlb_stats().misses);

  pass.Check(r.outcome == RunOutcome::kExited && r.exit_code == 0,
             "app did not exit cleanly: " + r.kill_reason);
  pass.Check(handle > 0, "seg_dlopen failed: " + std::to_string(handle));
  pass.Check(next == n, std::to_string(next) + " of " + std::to_string(n) + " calls made");
  pass.Check(wrong == 0,
             "wrong results: " + std::to_string(wrong) + " (first: " + first_wrong + ")");
  pass.offered = n;
  pass.failed = std::min<u64>(n, wrong + (n - next));
  pass.completed = n - pass.failed;

  u64 sum_prot = 0, sum_raw = 0;
  for (u32 i = 0; i < next; ++i) {
    sum_prot += prot[i];
    sum_raw += raw[i];
  }
  const double calls_done = std::max<u32>(1, next);
  MetricSet& sim = pass.sim;
  sim.Set("sim_cycles_per_op", static_cast<double>(sum_prot) / calls_done, "cycles");
  prot.resize(next);
  SetLatencies(prot, &sim);
  sim.Set("op_fail_ratio", static_cast<double>(pass.failed) / static_cast<double>(n), "ratio");

  sim.Set("core.uext.crossing_cycles",
          (static_cast<double>(sum_prot) - static_cast<double>(sum_raw)) / calls_done, "cycles");

  // Accuracy against the paper's Table 2 (protected call, warm).
  for (const auto& [size, paper_us] : {std::pair<u32, double>{32, kTable2Us32},
                                       std::pair<u32, double>{256, kTable2Us256}}) {
    std::vector<u64> at_size;
    for (u32 i = 0; i < next; ++i) {
      if (calls[i].size == size) at_size.push_back(prot[i]);
    }
    const double us = CyclesToUs(Percentile(at_size, 50));
    const std::string tag = "acc.table2_" + std::to_string(size) + "B";
    sim.Set(tag + "_us", us, "us");
    sim.Set(tag + "_err_pct", (us - paper_us) / paper_us * 100.0, "%");
  }

  obs::MetricsRegistry reg;
  reg.CollectMachine(kernel, nullptr);
  reg.CollectDl(dl);
  FillLayersFromRegistry(reg, std::max<u32>(1, next), &pass);
  if (traced) {
    // Nothing but this process ran, so the profile must close over exactly
    // the cycles RunProcess consumed.
    reg.CollectProfile(profiler);
    u64 sum = 0;
    for (u32 c = 0; c < obs::kNumCategories; ++c) {
      sum += profiler.BucketTotal(static_cast<obs::Category>(c));
    }
    const u64 ran = machine.cpu(0).cycles() - start_cycles;
    pass.Check(sum == profiler.TotalAll() && sum == ran,
               "profile: categories sum to " + std::to_string(sum) + " cycles, run took " +
                   std::to_string(ran));
    // The ledger of the protected calls, from the profile's deltas between
    // the marks. Its non-idle parts must sum exactly to the protected
    // cycles, and one process never idles. The profile books a user-level
    // extension call as user code: only kernel-extension calls have
    // crossing and filter-body hooks, so core.uext.crossing_cycles (from the
    // marks) carries the protection cost here.
    static const char* const kLedgerNames[obs::kNumCategories] = {
        "sim.user_cycles_per_op",     "sim.kernel_cycles_per_op", "sim.filter_body_cycles_per_op",
        "sim.crossing_cycles_per_op", "sim.irq_cycles_per_op",    "sim.tlb_miss_cycles_per_op",
        "sim.idle_cycles_per_op"};
    i64 ledger_busy = 0;
    for (u32 c = 0; c < obs::kNumCategories; ++c) {
      pass.Check(ledger[c] >= 0, std::string("ledger: ") + kLedgerNames[c] + " is negative");
      if (static_cast<obs::Category>(c) != obs::Category::kIdle) ledger_busy += ledger[c];
      sim.Set(kLedgerNames[c], static_cast<double>(ledger[c]) / calls_done, "cycles");
    }
    pass.Check(ledger[static_cast<u32>(obs::Category::kIdle)] == 0,
               "ledger: a single process idled inside its calls");
    pass.Check(ledger_busy == static_cast<i64>(sum_prot),
               "ledger: non-idle categories sum to " + std::to_string(ledger_busy) +
                   " cycles, the protected calls took " + std::to_string(sum_prot));
    sim.Set("sim.ledger_gap_cycles_per_op",
            (static_cast<double>(sum_prot) - static_cast<double>(ledger_busy)) / calls_done,
            "cycles");
    pass.layer.Set("asm.assemble_s", spans->Self("asm.assemble"), "s");
    pass.layer.Set("core.uext.seg_dlopen_s", spans->Self("core.uext.seg_dlopen"), "s");
  }
  return pass;
}

}  // namespace

std::unique_ptr<Workload> MakeUextCalls(u64 seed, double scale) {
  return std::make_unique<UextCalls>(seed, scale);
}

}  // namespace perfbench
