// Simulated sparse address space.
//
// Each variant process owns one AddressSpace. Accesses to unmapped addresses
// throw MemoryFault — the simulation's SIGSEGV — which the variant runner
// converts into a monitor alarm. Address-space partitioning (Table 1, rows 1
// and 2) works by mapping each variant's memory into a disjoint region, so an
// attacker-injected absolute address can be valid in at most one variant.
#ifndef NV_VKERNEL_MEMORY_H
#define NV_VKERNEL_MEMORY_H

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace nv::vkernel {

/// Simulated segmentation fault. Carries the faulting address for alarms.
struct MemoryFault {
  std::uint64_t address = 0;
  std::string what = "memory fault";
};

/// Sparse page-granular address space. map() records page ranges without
/// allocating them: a page's bytes are allocated, zero-filled, on its first
/// store, and a load from a mapped page never stored to reads 0. Every load
/// and store bounds-checks against the mapped ranges.
class AddressSpace {
 public:
  static constexpr std::uint64_t kPageSize = 4096;

  /// Map [base, base+size); rounds outward to page boundaries. Remapping an
  /// already-mapped page is idempotent.
  void map(std::uint64_t base, std::uint64_t size);
  [[nodiscard]] bool is_mapped(std::uint64_t addr, std::uint64_t size = 1) const noexcept;

  /// Bump-allocate `size` bytes from the data segment (set_alloc_base first).
  std::uint64_t alloc(std::uint64_t size, std::uint64_t align = 8);
  void set_alloc_base(std::uint64_t base) noexcept { alloc_next_ = base; }
  [[nodiscard]] std::uint64_t alloc_cursor() const noexcept { return alloc_next_; }

  // Typed accessors; all throw MemoryFault on unmapped access.
  [[nodiscard]] std::uint8_t load_u8(std::uint64_t addr) const;
  [[nodiscard]] std::uint32_t load_u32(std::uint64_t addr) const;
  [[nodiscard]] std::uint64_t load_u64(std::uint64_t addr) const;
  void store_u8(std::uint64_t addr, std::uint8_t value);
  void store_u32(std::uint64_t addr, std::uint32_t value);
  void store_u64(std::uint64_t addr, std::uint64_t value);

  [[nodiscard]] std::vector<std::uint8_t> load_bytes(std::uint64_t addr,
                                                     std::uint64_t size) const;
  void store_bytes(std::uint64_t addr, std::span<const std::uint8_t> bytes);
  void store_string(std::uint64_t addr, std::string_view text);
  [[nodiscard]] std::string load_string(std::uint64_t addr, std::uint64_t max_len) const;

  /// Pages mapped, whether or not they have been touched.
  [[nodiscard]] std::uint64_t mapped_pages() const noexcept { return mapped_pages_; }

 private:
  [[nodiscard]] const std::uint8_t* page_for(std::uint64_t addr) const;
  [[nodiscard]] std::uint8_t* page_for(std::uint64_t addr);

  /// Mapped ranges: first page base -> last page base, disjoint and never
  /// adjacent (map() coalesces), so a mapped span lies in one range.
  std::map<std::uint64_t, std::uint64_t> ranges_;
  std::uint64_t mapped_pages_ = 0;
  std::map<std::uint64_t, std::vector<std::uint8_t>> pages_;  // stored-to page base -> bytes
  std::uint64_t alloc_next_ = 0;
};

}  // namespace nv::vkernel

#endif  // NV_VKERNEL_MEMORY_H
