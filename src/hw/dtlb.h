// Software D-TLB: the data-path analogue of the decoded-page fetch TLB. A
// small direct-mapped cache from linear page number to a validated host
// pointer into PhysicalMemory, so the common load/store/push/pop executes as
// one probe plus a memcpy instead of a page-table translation per byte.
//
// Correctness contract (the differential fuzz in cpu_property_test.cc pins
// this down against the per-byte oracle path):
//  - An entry is live only while Tlb::change_count() still equals the value
//    captured at fill time, so every invalidation source — CR3 load, INVLPG
//    analogue (Tlb::FlushPage), kernel PTE edits through the editor hook —
//    kills the whole D-TLB in O(1), exactly like the fetch fast path.
//  - Fills go through Cpu::Translate only, and conflict evictions in the
//    hardware TLB (Tlb::Insert replacing a live entry) evict the matching
//    D-TLB set, so a D-TLB hit implies the hardware TLB still holds the
//    same translation: cycle charges (tlb_miss_penalty) and fault behaviour
//    are identical to the slow path by construction.
//  - Permission bits (PTE U/W) are stored per entry and re-checked against
//    the *live* CPL on every probe; segment limits are checked by the caller
//    before the probe. CPL transitions and segment reloads therefore need no
//    explicit invalidation: the next probe revalidates.
//  - kPteDirty in `flags` means "the PTE's D bit is known set". A write hit
//    without it performs the architectural dirty-bit update first (the same
//    rule Cpu::Translate applies on TLB-hit writes), so the page-table image
//    is byte-identical with the fast path on or off.
#ifndef SRC_HW_DTLB_H_
#define SRC_HW_DTLB_H_

#include <array>

#include "src/hw/types.h"

namespace palladium {

class DTlb {
 public:
  // Matches Tlb::kEntries so a hardware-TLB conflict eviction maps to
  // exactly one D-TLB set.
  static constexpr u32 kEntries = 64;

  struct Entry {
    u64 tlb_change = ~0ull;  // live iff == Tlb::change_count() (~0 = never)
    u32 vpn = 0;             // linear page number
    u32 frame = 0;           // physical frame base
    u32 flags = 0;           // effective PTE flags + known-set A/D bits
    u8* host = nullptr;      // host pointer to the frame's first byte
  };

  struct Stats {
    u64 hits = 0;
    u64 misses = 0;
    u64 fills = 0;
    u64 evictions = 0;  // entries killed by hardware-TLB conflict evictions
  };

  // Returns the live entry for `vpn` or nullptr. `change_count` is the
  // current Tlb::change_count(); any invalidation since fill time misses.
  Entry* Lookup(u32 vpn, u64 change_count) {
    Entry& e = entries_[vpn % kEntries];
    if (e.tlb_change == change_count && e.vpn == vpn && e.host != nullptr) return &e;
    return nullptr;
  }

  void Fill(u32 vpn, u32 frame, u32 flags, u8* host, u64 change_count) {
    entries_[vpn % kEntries] = Entry{change_count, vpn, frame, flags, host};
    ++stats_.fills;
  }

  // Kills the entry for `vpn` if present. Wired to hardware-TLB conflict
  // evictions (same geometry, so the victim lives in the same set here).
  // `change_count` is the current Tlb::change_count(): kills of already-
  // stale entries are not counted as evictions.
  void InvalidatePage(u32 vpn, u64 change_count) {
    Entry& e = entries_[vpn % kEntries];
    if (e.vpn == vpn && e.host != nullptr) {
      if (e.tlb_change == change_count) ++stats_.evictions;
      e.tlb_change = ~0ull;
      e.host = nullptr;
    }
  }

  void CountHit() { ++stats_.hits; }
  void CountMiss() { ++stats_.misses; }

  const Stats& stats() const { return stats_; }

 private:
  std::array<Entry, kEntries> entries_{};
  Stats stats_;
};

}  // namespace palladium

#endif  // SRC_HW_DTLB_H_
