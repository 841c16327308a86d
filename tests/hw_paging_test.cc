// Page-table walker and editor tests, including the page-privilege (PPL)
// semantics Palladium's user-level mechanism depends on.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>

#include "src/hw/paging.h"
#include "src/hw/physical_memory.h"

namespace palladium {
namespace {

class PagingTest : public ::testing::Test {
 protected:
  PagingTest() : pm_(4u << 20) {
    cr3_ = Alloc();
    next_table_ = 0;
  }

  u32 Alloc() {
    bump_ -= kPageSize;
    pm_.Fill(bump_, 0, kPageSize);
    return bump_;
  }

  // Maps linear -> frame with flags through the editor.
  void Map(u32 linear, u32 frame, u32 flags) {
    PageTableEditor ed(pm_, cr3_);
    ASSERT_TRUE(ed.Map(linear, frame, flags, [&] { return Alloc(); }));
  }

  PhysicalMemory pm_;
  u32 cr3_ = 0;
  u32 bump_ = 4u << 20;
  u32 next_table_ = 0;
};

TEST_F(PagingTest, NotPresentFaults) {
  WalkResult r = WalkPageTable(pm_, cr3_, 0x1000, false, false);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.fault.vector, FaultVector::kPageFault);
  EXPECT_EQ(r.fault.error_code & kPfErrPresent, 0u);
  EXPECT_EQ(r.fault.linear_address, 0x1000u);
}

TEST_F(PagingTest, MapThenWalk) {
  u32 frame = Alloc();
  Map(0x00400000, frame, kPtePresent | kPteWrite | kPteUser);
  WalkResult r = WalkPageTable(pm_, cr3_, 0x00400123, true, true);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.frame, frame);
}

TEST_F(PagingTest, UserCannotTouchSupervisorPage) {
  // This is the paper's core page-level rule: SPL 3 cannot access PPL 0.
  u32 frame = Alloc();
  Map(0x2000, frame, kPtePresent | kPteWrite);  // PPL 0: no U bit
  WalkResult user = WalkPageTable(pm_, cr3_, 0x2000, false, true);
  EXPECT_FALSE(user.ok);
  EXPECT_TRUE(user.fault.error_code & kPfErrPresent);  // protection, not missing
  EXPECT_TRUE(user.fault.error_code & kPfErrUser);

  WalkResult sup = WalkPageTable(pm_, cr3_, 0x2000, false, false);
  EXPECT_TRUE(sup.ok);  // SPL 0..2 are supervisor at page level
}

TEST_F(PagingTest, UserWriteToReadOnlyFaults) {
  u32 frame = Alloc();
  Map(0x3000, frame, kPtePresent | kPteUser);  // read-only user page (the GOT case)
  WalkResult w = WalkPageTable(pm_, cr3_, 0x3000, true, true);
  EXPECT_FALSE(w.ok);
  EXPECT_TRUE(w.fault.error_code & kPfErrWrite);
  WalkResult r = WalkPageTable(pm_, cr3_, 0x3000, false, true);
  EXPECT_TRUE(r.ok);
}

TEST_F(PagingTest, SupervisorWriteIgnoresReadOnly) {
  // No CR0.WP (Linux 2.0 era): the SPL 2 application may write pages that
  // are read-only for its SPL 3 extensions.
  u32 frame = Alloc();
  Map(0x4000, frame, kPtePresent | kPteUser);
  WalkResult w = WalkPageTable(pm_, cr3_, 0x4000, true, false);
  EXPECT_TRUE(w.ok);
}

TEST_F(PagingTest, EffectivePermissionIsAndOfLevels) {
  // Clear the U bit at the PDE level: even a U-bit PTE must then fault for
  // user accesses.
  u32 frame = Alloc();
  Map(0x5000, frame, kPtePresent | kPteWrite | kPteUser);
  u32 pde = 0;
  ASSERT_TRUE(pm_.Read32(cr3_ + PdeIndex(0x5000) * 4, &pde));
  ASSERT_TRUE(pm_.Write32(cr3_ + PdeIndex(0x5000) * 4, pde & ~kPteUser));
  WalkResult r = WalkPageTable(pm_, cr3_, 0x5000, false, true);
  EXPECT_FALSE(r.ok);
}

TEST_F(PagingTest, AccessedDirtyBits) {
  u32 frame = Alloc();
  Map(0x6000, frame, kPtePresent | kPteWrite | kPteUser);
  ASSERT_TRUE(SetAccessedDirty(pm_, cr3_, 0x6000, /*dirty=*/true));
  PageTableEditor ed(pm_, cr3_);
  u32 pte = 0;
  ASSERT_TRUE(ed.GetPte(0x6000, &pte));
  EXPECT_TRUE(pte & kPteAccessed);
  EXPECT_TRUE(pte & kPteDirty);
}

TEST_F(PagingTest, EditorUpdateFlags) {
  // The set_range syscall path: flip the U bit ("PPL") on an existing page.
  u32 frame = Alloc();
  Map(0x7000, frame, kPtePresent | kPteWrite);
  PageTableEditor ed(pm_, cr3_);
  ASSERT_TRUE(ed.UpdateFlags(0x7000, kPteUser, 0));
  WalkResult r = WalkPageTable(pm_, cr3_, 0x7000, false, true);
  EXPECT_TRUE(r.ok);
  ASSERT_TRUE(ed.UpdateFlags(0x7000, 0, kPteUser));
  r = WalkPageTable(pm_, cr3_, 0x7000, false, true);
  EXPECT_FALSE(r.ok);
}

TEST_F(PagingTest, EditorUnmap) {
  u32 frame = Alloc();
  Map(0x8000, frame, kPtePresent | kPteWrite | kPteUser);
  PageTableEditor ed(pm_, cr3_);
  ASSERT_TRUE(ed.Unmap(0x8000));
  WalkResult r = WalkPageTable(pm_, cr3_, 0x8000, false, false);
  EXPECT_FALSE(r.ok);
}

TEST_F(PagingTest, UpdateFlagsOnMissingMappingFails) {
  PageTableEditor ed(pm_, cr3_);
  EXPECT_FALSE(ed.UpdateFlags(0x00900000, kPteUser, 0));
}

TEST_F(PagingTest, DistinctAddressSpaces) {
  u32 other_cr3 = Alloc();
  u32 frame = Alloc();
  Map(0x9000, frame, kPtePresent | kPteWrite | kPteUser);
  // The second address space has no such mapping.
  WalkResult r = WalkPageTable(pm_, other_cr3, 0x9000, false, false);
  EXPECT_FALSE(r.ok);
}

// Resident set size of this process in bytes, from /proc/self/statm.
u64 ResidentBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long total_pages = 0, resident_pages = 0;
  const int n = std::fscanf(f, "%lu %lu", &total_pages, &resident_pages);
  std::fclose(f);
  return n == 2 ? static_cast<u64>(resident_pages) * sysconf(_SC_PAGESIZE) : 0;
}

// Guest RAM is a lazily-zeroed host mapping: a 1 GiB machine reads zero
// everywhere, keeps its bounds checks, and costs resident memory only for
// the pages the simulation writes.
TEST(PhysicalMemoryTest, LargeMemoryIsLazyZeroAndBoundsChecked) {
  constexpr u32 kSize = 1u << 30;
  const u64 rss_before = ResidentBytes();
  ASSERT_GT(rss_before, 0u);
  PhysicalMemory pm(kSize);
  ASSERT_EQ(pm.size(), kSize);

  u8 b = 0xAA;
  ASSERT_TRUE(pm.Read8(0, &b));
  EXPECT_EQ(b, 0);
  b = 0xAA;
  ASSERT_TRUE(pm.Read8(kSize - 1, &b));
  EXPECT_EQ(b, 0);
  const u32 top_frame = kSize - kPageSize;
  const u8* top = pm.FrameHostPtr(top_frame);
  ASSERT_NE(top, nullptr);
  for (u32 i = 0; i < kPageSize; ++i) ASSERT_EQ(top[i], 0) << "byte " << i;

  EXPECT_TRUE(pm.Contains(kSize - 1, 1));
  EXPECT_FALSE(pm.Contains(kSize, 1));
  b = 0xAA;
  EXPECT_FALSE(pm.Read8(kSize, &b));
  EXPECT_EQ(b, 0xAA);
  EXPECT_EQ(pm.FrameHostPtr(kSize), nullptr);

  ASSERT_TRUE(pm.Write8(top_frame + 7, 0x5C));
  ASSERT_TRUE(pm.Read8(top_frame + 7, &b));
  EXPECT_EQ(b, 0x5C);
  // A zero-filled buffer would make all 1 GiB resident here.
  const u64 rss_after = ResidentBytes();
  EXPECT_LT(rss_after, rss_before + (64ull << 20))
      << "resident " << (rss_before >> 20) << " MiB -> " << (rss_after >> 20) << " MiB";
}

}  // namespace
}  // namespace palladium
