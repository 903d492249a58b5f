#pragma once
// Bump-pointer arena for host-side simulator metadata (DESIGN.md §10).
//
// Allocation is a pointer bump; freeing is wholesale (reset() rewinds to the
// first block, keeping the memory for reuse). Intended for trivially
// destructible payloads whose lifetime matches a simulator phase: the obs
// trace-event ring (allocated once at sink capacity) and mem::SimHeap's
// chunked free-list nodes (live as long as the heap). Destructors are never
// run — the arena only hands out raw storage.
//
// Determinism note: the arena affects *host* memory layout only; simulated
// addresses and stats never depend on where arena blocks land.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace tsx::util {

class Arena {
 public:
  explicit Arena(size_t block_bytes = 64 * 1024) : block_bytes_(block_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  void* alloc(size_t bytes, size_t align = alignof(std::max_align_t)) {
    if (bytes == 0) bytes = 1;
    size_t pos = cur_block_ < blocks_.size() ? align_up(pos_, align) : 0;
    if (cur_block_ >= blocks_.size() || pos + bytes > blocks_[cur_block_].cap) {
      next_block(bytes + align);
      pos = align_up(pos_, align);
    }
    std::byte* p = blocks_[cur_block_].data.get() + pos;
    pos_ = pos + bytes;
    return p;
  }

  // Uninitialized storage for n objects of T; T must be trivially
  // destructible (the arena never runs destructors).
  template <typename T>
  T* alloc_array(size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena storage is never destroyed element-wise");
    return static_cast<T*>(alloc(n * sizeof(T), alignof(T)));
  }

  template <typename T, typename... Args>
  T* create(Args&&... args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena storage is never destroyed element-wise");
    return ::new (alloc(sizeof(T), alignof(T))) T(std::forward<Args>(args)...);
  }

  // Rewind to empty, keeping every block for reuse. Previously returned
  // pointers are invalidated (storage is recycled, not freed).
  void reset() {
    cur_block_ = 0;
    pos_ = 0;
  }

  size_t blocks() const { return blocks_.size(); }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    size_t cap;
  };

  static size_t align_up(size_t v, size_t a) { return (v + a - 1) & ~(a - 1); }

  void next_block(size_t min_bytes) {
    // Advance past the current block (if any), then skip recycled blocks
    // too small for this request; grow a fresh block if none fits.
    if (cur_block_ < blocks_.size()) ++cur_block_;
    while (cur_block_ < blocks_.size() &&
           blocks_[cur_block_].cap < min_bytes) {
      ++cur_block_;
    }
    if (cur_block_ >= blocks_.size()) {
      size_t cap = std::max(block_bytes_, min_bytes);
      blocks_.push_back(Block{std::make_unique<std::byte[]>(cap), cap});
      cur_block_ = blocks_.size() - 1;
    }
    pos_ = 0;
  }

  size_t block_bytes_;
  std::vector<Block> blocks_;
  size_t cur_block_ = 0;
  size_t pos_ = 0;
};

}  // namespace tsx::util
