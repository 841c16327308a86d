// Ablations for the paper's design decisions (README.md lists this bench
// under "Build and test"; its full-workload counterpart is bench_protection,
// README "Protection ablation: Palladium vs unprotected vs SFI vs BPF"):
//   1. SFI baseline (Section 2.1): per-instruction sandboxing overhead on
//      memory-light vs memory-heavy kernels, write-only vs read-write.
//   2. The rejected TSS-update design for Prepare (Section 4.5.1): saving
//      the application stack pointer into the TSS would add a system call
//      to every protected invocation.
//   3. L4-style IPC (Section 2.2 / 5.1): four protection-domain crossings
//      per request-reply vs Palladium's two.
//   4. Call-gate parameter copying: the hardware word-copy cost Palladium
//      avoids by passing one register-sized argument + a shared area.
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/hw/bare_machine.h"
#include "src/sfi/sfi.h"

namespace palladium {
namespace {

BenchJson& Json() {
  static BenchJson json("ablation");
  return json;
}

u64 RunBare(const ObjectFile& obj, u32 base, const char* entry, u32 arg) {
  BareMachine bm;
  LinkError lerr;
  auto img = LinkImage(obj, base, {}, &lerr);
  if (!img) {
    std::fprintf(stderr, "link: %s\n", lerr.message.c_str());
    std::exit(1);
  }
  bm.LoadImage(*img);
  // Driver: push arg; call entry; hlt.
  std::string driver = R"(
  .global main
main:
  push $)" + std::to_string(arg) +
                       R"(
  call )" + std::to_string(*img->Lookup(entry)) +
                       R"(
  pop %ecx
  hlt
)";
  std::string diag;
  auto dimg = bm.LoadProgram(driver, 0x8000, &diag);
  if (!dimg) {
    std::fprintf(stderr, "driver: %s\n", diag.c_str());
    std::exit(1);
  }
  bm.Start(*dimg->Lookup("main"), 0, 0x00480000);
  u64 before = bm.cpu().cycles();
  StopInfo stop = bm.Run(50'000'000);
  if (stop.reason != StopReason::kHalted) {
    std::fprintf(stderr, "kernel did not halt (%d)\n", static_cast<int>(stop.reason));
    std::exit(1);
  }
  return bm.cpu().cycles() - before;
}

void BenchSfi() {
  std::printf("1. SFI sandboxing overhead (vs unprotected, same simulated CPU)\n");
  std::printf("%-28s %12s %12s %12s\n", "kernel", "base (cyc)", "write-only", "read-write");

  struct Workload {
    const char* name;
    const char* source;
    u32 arg;
  };
  // compute-heavy: almost no memory traffic. copy/sum: memory-dominated.
  const Workload workloads[] = {
      {"compute (few mem ops)", R"(
  .global kernel_fn
kernel_fn:
  push %ebp
  mov %esp, %ebp
  ld 8(%ebp), %ecx
  mov $1, %eax
k_loop:
  imul $3, %eax
  add $7, %eax
  xor $0x55, %eax
  dec %ecx
  cmp $0, %ecx
  jne k_loop
  pop %ebp
  ret
)",
       512},
      {"checksum (load-heavy)", R"(
  .global kernel_fn
kernel_fn:
  push %ebp
  mov %esp, %ebp
  ld 8(%ebp), %ecx
  mov $buf, %ebx
  mov $0, %eax
c_loop:
  ld 0(%ebx), %esi
  add %esi, %eax
  add $4, %ebx
  dec %ecx
  cmp $0, %ecx
  jne c_loop
  pop %ebp
  ret
  .bss
buf:
  .space 4096
)",
       512},
      {"copy (store-heavy)", R"(
  .global kernel_fn
kernel_fn:
  push %ebp
  mov %esp, %ebp
  ld 8(%ebp), %ecx
  mov $src, %ebx
  mov $dst, %esi
m_loop:
  ld 0(%ebx), %eax
  st %eax, 0(%esi)
  add $4, %ebx
  add $4, %esi
  dec %ecx
  cmp $0, %ecx
  jne m_loop
  pop %ebp
  ret
  .bss
src:
  .space 2048
dst:
  .space 2048
)",
       512},
  };

  SfiOptions wo;
  wo.sandbox_base = 0x00400000;
  wo.sandbox_bits = 20;
  wo.protection = SfiProtection::kWriteOnly;
  wo.scratch = Reg::kEdi;
  SfiOptions rw = wo;
  rw.protection = SfiProtection::kReadWrite;
  // The copy kernel uses %esi; give it a different scratch.
  for (const Workload& w : workloads) {
    AssembleError aerr;
    auto obj = Assemble(w.source, &aerr);
    if (!obj) {
      std::fprintf(stderr, "%s: %s\n", w.name, aerr.ToString().c_str());
      std::exit(1);
    }
    SfiOptions wo_opt = wo, rw_opt = rw;
    if (std::string(w.name).rfind("copy", 0) == 0 ||
        std::string(w.name).rfind("checksum", 0) == 0) {
      wo_opt.scratch = Reg::kEdx;
      rw_opt.scratch = Reg::kEdx;
    }
    std::string diag;
    SfiStats s1, s2;
    auto obj_wo = SfiRewrite(*obj, wo_opt, &s1, &diag);
    auto obj_rw = SfiRewrite(*obj, rw_opt, &s2, &diag);
    if (!obj_wo || !obj_rw) {
      std::fprintf(stderr, "%s: %s\n", w.name, diag.c_str());
      std::exit(1);
    }
    u64 base = RunBare(*obj, 0x00400000, "kernel_fn", w.arg);
    u64 c_wo = RunBare(*obj_wo, 0x00400000, "kernel_fn", w.arg);
    u64 c_rw = RunBare(*obj_rw, 0x00400000, "kernel_fn", w.arg);
    std::printf("%-28s %12llu %11.1f%% %11.1f%%\n", w.name,
                static_cast<unsigned long long>(base),
                100.0 * (static_cast<double>(c_wo) - base) / base,
                100.0 * (static_cast<double>(c_rw) - base) / base);
    const std::string prefix = std::string("sfi_") + w.name + "_";
    Json().Set(prefix + "overhead_wo_pct", 100.0 * (static_cast<double>(c_wo) - base) / base);
    Json().Set(prefix + "overhead_rw_pct", 100.0 * (static_cast<double>(c_rw) - base) / base);
  }
  std::printf("  [paper, citing SFI literature: overheads range ~1%% to 220%%]\n\n");
}

void BenchTssVariant() {
  const CycleModel m = CycleModel::Measured();
  // Measured protected call from the live system:
  BenchSystem sys;
  sys.RegisterObject("nullext", ".global f\nf:\n  ret\n");
  sys.RunApp(R"(
  .global main
main:
  mov $SYS_INIT_PL, %eax
  int $INT_SYSCALL
  mov $SYS_SEG_DLOPEN, %eax
  mov $extname, %ebx
  int $INT_SYSCALL
  mov %eax, %esi
  mov $SYS_SEG_DLSYM, %eax
  mov %esi, %ebx
  mov $fnname, %ecx
  int $INT_SYSCALL
  mov %eax, %edi
  push $0
  call *%edi
  pop %ecx
  mov $SYS_BENCH_MARK, %eax
  int $INT_SYSCALL
  mov $SYS_BENCH_MARK, %eax
  int $INT_SYSCALL
  mov $SYS_BENCH_MARK, %eax
  int $INT_SYSCALL
  push $0
  call *%edi
  pop %ecx
  mov $SYS_BENCH_MARK, %eax
  int $INT_SYSCALL
  mov $SYS_EXIT, %eax
  mov $0, %ebx
  int $INT_SYSCALL
  .data
extname:
  .asciz "nullext"
fnname:
  .asciz "f"
)");
  u64 protected_call = sys.PairedDelta(1);
  // The rejected variant: Prepare would have to update TSS.esp2 through a
  // system call (the TSS is only writable at SPL 0).
  u64 tss_syscall = m.int_gate + m.iret_inter + sys.kernel().costs().syscall_dispatch;
  std::printf("2. Rejected design: saving ESP to the TSS on every call\n");
  std::printf("   Palladium protected call (measured):        %6llu cycles\n",
              static_cast<unsigned long long>(protected_call));
  std::printf("   + TSS-update system call (int+dispatch+iret): %4llu cycles\n",
              static_cast<unsigned long long>(tss_syscall));
  std::printf("   TSS variant total:                          %6llu cycles (%.1fx)\n\n",
              static_cast<unsigned long long>(protected_call + tss_syscall),
              static_cast<double>(protected_call + tss_syscall) / protected_call);
  Json().Set("protected_call_cycles", protected_call);
  Json().Set("tss_variant_cycles", protected_call + tss_syscall);
}

void BenchL4Comparison() {
  const CycleModel m = CycleModel::Measured();
  BenchSystem sys;
  sys.RegisterObject("nullext", ".global f\nf:\n  ret\n");
  sys.RunApp(R"(
  .global main
main:
  mov $SYS_INIT_PL, %eax
  int $INT_SYSCALL
  mov $SYS_SEG_DLOPEN, %eax
  mov $extname, %ebx
  int $INT_SYSCALL
  mov %eax, %esi
  mov $SYS_SEG_DLSYM, %eax
  mov %esi, %ebx
  mov $fnname, %ecx
  int $INT_SYSCALL
  mov %eax, %edi
  push $0
  call *%edi
  pop %ecx
  mov $SYS_BENCH_MARK, %eax
  int $INT_SYSCALL
  mov $SYS_BENCH_MARK, %eax
  int $INT_SYSCALL
  mov $SYS_BENCH_MARK, %eax
  int $INT_SYSCALL
  push $0
  call *%edi
  pop %ecx
  mov $SYS_BENCH_MARK, %eax
  int $INT_SYSCALL
  mov $SYS_EXIT, %eax
  mov $0, %ebx
  int $INT_SYSCALL
  .data
extname:
  .asciz "nullext"
fnname:
  .asciz "f"
)");
  u64 palladium = sys.PairedDelta(1);
  // L4-style request-reply: 4 privilege crossings (2 kernel entries + 2
  // exits), register-only arguments, shared page tables.
  u64 l4 = 2 * (m.int_gate + m.iret_inter) + 28 /* register marshalling + dispatch */;
  std::printf("3. IPC comparison (request-reply)\n");
  std::printf("   Palladium protected call: %llu cycles, 2 domain crossings (measured)\n",
              static_cast<unsigned long long>(palladium));
  std::printf("   L4-style IPC model:       %llu cycles, 4 domain crossings\n",
              static_cast<unsigned long long>(l4));
  std::printf("   [paper: Palladium 142 vs L4 best case 242 on a P166]\n\n");
  Json().Set("ipc_palladium_cycles", palladium);
  Json().Set("ipc_l4_model_cycles", l4);
  sys.EmitSystemMetrics(&Json());
}

void BenchGateParamCopy() {
  std::printf("4. Call-gate parameter copying (hardware word copy per parameter)\n");
  std::printf("%-12s %14s\n", "params", "lcall+lret cyc");
  for (u8 params : {0, 1, 2, 4}) {
    BareMachine bm;
    std::string diag;
    // 100 lcall/lret round trips from CPL 3 through a gate with `params`
    // stack words copied by the hardware; the terminating #GP (hlt at CPL 3)
    // is a constant amortized across iterations.
    std::string src = R"(
  .global main
  .global target
main:
  push $11
  push $22
  push $33
  push $44
  mov $100, %esi
gate_loop:
  lcall $96            ; gate at GDT index 12
  dec %esi
  cmp $0, %esi
  jne gate_loop
  hlt
target:
  lret $)" + std::to_string(4 * params) + R"(
)";
    auto img = bm.LoadProgram(src, 0x10000, &diag);
    if (!img) {
      std::fprintf(stderr, "%s\n", diag.c_str());
      return;
    }
    bm.gdt().Set(12, SegmentDescriptor::MakeCallGate(BareMachine::CodeSelector(0).raw(),
                                                     *img->Lookup("target"), 3, params));
    bm.Start(*img->Lookup("main"), 3, 0x80000);
    u64 before = bm.cpu().cycles();
    bm.Run(1'000'000);
    std::printf("%-12u %14.1f\n", params,
                static_cast<double>(bm.cpu().cycles() - before) / 100.0);
    Json().Set("gate_params_" + std::to_string(params) + "_cycles",
               static_cast<double>(bm.cpu().cycles() - before) / 100.0);
  }
  std::printf("  (Palladium passes one register argument + a shared data area,\n");
  std::printf("   so its gates copy zero parameters.)\n");
}

}  // namespace
}  // namespace palladium

int main() {
  using namespace palladium;
  std::printf("Ablation benchmarks\n\n");
  BenchSfi();
  BenchTssVariant();
  BenchL4Comparison();
  BenchGateParamCopy();
  std::printf("wrote %s\n", Json().Write().c_str());
  return 0;
}
