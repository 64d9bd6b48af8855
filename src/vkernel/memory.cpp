#include "vkernel/memory.h"

#include <algorithm>
#include <iterator>

#include "util/strings.h"

namespace nv::vkernel {

namespace {
constexpr std::uint64_t page_base(std::uint64_t addr) noexcept {
  return addr & ~(AddressSpace::kPageSize - 1);
}

MemoryFault unmapped(std::uint64_t addr) {
  return MemoryFault{addr, "unmapped address " + util::format("0x%llx",
                                                              static_cast<unsigned long long>(addr))};
}
}  // namespace

void AddressSpace::map(std::uint64_t base, std::uint64_t size) {
  if (size == 0) return;
  std::uint64_t first = page_base(base);
  std::uint64_t last = page_base(base + size - 1);
  // Absorb every range that overlaps or abuts [first, last].
  auto it = ranges_.upper_bound(first);
  if (it != ranges_.begin()) {
    const auto prev = std::prev(it);
    if (prev->second >= first || first - prev->second == kPageSize) it = prev;
  }
  while (it != ranges_.end() && (it->first <= last || it->first - last == kPageSize)) {
    first = std::min(first, it->first);
    last = std::max(last, it->second);
    mapped_pages_ -= (it->second - it->first) / kPageSize + 1;
    it = ranges_.erase(it);
  }
  ranges_.emplace(first, last);
  mapped_pages_ += (last - first) / kPageSize + 1;
}

bool AddressSpace::is_mapped(std::uint64_t addr, std::uint64_t size) const noexcept {
  if (size == 0) return true;
  const std::uint64_t first = page_base(addr);
  auto it = ranges_.upper_bound(first);
  if (it == ranges_.begin()) return false;
  --it;
  return page_base(addr + size - 1) <= it->second && first <= it->second;
}

std::uint64_t AddressSpace::alloc(std::uint64_t size, std::uint64_t align) {
  if (align == 0) align = 1;
  alloc_next_ = (alloc_next_ + align - 1) / align * align;
  const std::uint64_t addr = alloc_next_;
  map(addr, size);
  alloc_next_ += size;
  return addr;
}

const std::uint8_t* AddressSpace::page_for(std::uint64_t addr) const {
  static const std::vector<std::uint8_t> kZeroPage(kPageSize, 0);
  const std::uint64_t page = page_base(addr);
  if (const auto it = pages_.find(page); it != pages_.end()) return it->second.data();
  if (!is_mapped(page)) throw unmapped(addr);
  return kZeroPage.data();
}

std::uint8_t* AddressSpace::page_for(std::uint64_t addr) {
  const std::uint64_t page = page_base(addr);
  if (const auto it = pages_.find(page); it != pages_.end()) return it->second.data();
  if (!is_mapped(page)) throw unmapped(addr);
  return pages_.try_emplace(page, kPageSize, std::uint8_t{0}).first->second.data();
}

std::uint8_t AddressSpace::load_u8(std::uint64_t addr) const {
  return page_for(addr)[addr % kPageSize];
}

void AddressSpace::store_u8(std::uint64_t addr, std::uint8_t value) {
  page_for(addr)[addr % kPageSize] = value;
}

std::uint32_t AddressSpace::load_u32(std::uint64_t addr) const {
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) value |= static_cast<std::uint32_t>(load_u8(addr + static_cast<std::uint64_t>(i))) << (8 * i);
  return value;
}

void AddressSpace::store_u32(std::uint64_t addr, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) store_u8(addr + static_cast<std::uint64_t>(i), static_cast<std::uint8_t>(value >> (8 * i)));
}

std::uint64_t AddressSpace::load_u64(std::uint64_t addr) const {
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) value |= static_cast<std::uint64_t>(load_u8(addr + static_cast<std::uint64_t>(i))) << (8 * i);
  return value;
}

void AddressSpace::store_u64(std::uint64_t addr, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) store_u8(addr + static_cast<std::uint64_t>(i), static_cast<std::uint8_t>(value >> (8 * i)));
}

std::vector<std::uint8_t> AddressSpace::load_bytes(std::uint64_t addr, std::uint64_t size) const {
  std::vector<std::uint8_t> out;
  out.reserve(size);
  for (std::uint64_t i = 0; i < size; ++i) out.push_back(load_u8(addr + i));
  return out;
}

void AddressSpace::store_bytes(std::uint64_t addr, std::span<const std::uint8_t> bytes) {
  for (std::size_t i = 0; i < bytes.size(); ++i) store_u8(addr + i, bytes[i]);
}

void AddressSpace::store_string(std::uint64_t addr, std::string_view text) {
  for (std::size_t i = 0; i < text.size(); ++i) {
    store_u8(addr + i, static_cast<std::uint8_t>(text[i]));
  }
  store_u8(addr + text.size(), 0);
}

std::string AddressSpace::load_string(std::uint64_t addr, std::uint64_t max_len) const {
  std::string out;
  for (std::uint64_t i = 0; i < max_len; ++i) {
    const std::uint8_t byte = load_u8(addr + i);
    if (byte == 0) break;
    out.push_back(static_cast<char>(byte));
  }
  return out;
}

}  // namespace nv::vkernel
