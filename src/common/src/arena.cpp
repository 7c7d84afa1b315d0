#include "common/arena.hpp"

#include <algorithm>
#include <stdexcept>

namespace d2dhb {

namespace {

/// Rounds `value` up to the next multiple of `align` (a power of two).
std::size_t align_up(std::size_t value, std::size_t align) {
  return (value + align - 1) & ~(align - 1);
}

}  // namespace

Arena::Arena(Mode mode, std::size_t block_bytes)
    : mode_(mode), block_bytes_(block_bytes) {
  if (block_bytes_ == 0) {
    throw std::invalid_argument("Arena: block_bytes must be positive");
  }
}

Arena::~Arena() {
  reset();
}

void Arena::register_finalizer(void* object, void (*destroy)(void*)) {
  finalizers_.push_back(Finalizer{object, destroy});
  ++stats_.objects;
}

void* Arena::allocate(std::size_t bytes, std::size_t align) {
  if (align == 0 || (align & (align - 1)) != 0) {
    throw std::invalid_argument("Arena::allocate: bad alignment");
  }
  if (bytes == 0) bytes = 1;
  stats_.bytes_allocated += align_up(bytes, align);
  if (mode_ == Mode::heap) {
    void* p = ::operator new(bytes, std::align_val_t{align});
    heap_allocs_.push_back(HeapAlloc{p, align});
    stats_.bytes_reserved += align_up(bytes, align);
    return p;
  }
  return allocate_pooled(bytes, align);
}

void* Arena::allocate_pooled(std::size_t bytes, std::size_t align) {
  // Walk forward from the current block: the cursor never moves back
  // within one generation, so allocation order is program order.
  for (; current_block_ < blocks_.size(); ++current_block_) {
    Block& block = blocks_[current_block_];
    const auto base = reinterpret_cast<std::uintptr_t>(block.data.get());
    const std::size_t offset =
        align_up(static_cast<std::size_t>(base) + block.used, align) -
        static_cast<std::size_t>(base);
    if (offset + bytes <= block.capacity) {
      block.used = offset + bytes;
      return block.data.get() + offset;
    }
  }
  // No room: append a new block — dedicated for oversize requests so a
  // single huge allocation never forces a huge default block size.
  const std::size_t capacity = std::max(block_bytes_, bytes + align);
  Block block;
  // Uninitialised: pages a strip never touches stay unmapped.
  block.data = std::make_unique_for_overwrite<std::byte[]>(capacity);
  block.capacity = capacity;
  stats_.bytes_reserved += capacity;
  ++stats_.blocks;
  blocks_.push_back(std::move(block));
  current_block_ = blocks_.size() - 1;
  Block& fresh = blocks_.back();
  const auto base = reinterpret_cast<std::uintptr_t>(fresh.data.get());
  const std::size_t offset =
      align_up(static_cast<std::size_t>(base), align) -
      static_cast<std::size_t>(base);
  fresh.used = offset + bytes;
  return fresh.data.get() + offset;
}

void Arena::reset() {
  // Reverse allocation order: the exact mirror of a stack of locals,
  // so an agent allocated after its phone is destroyed before it.
  for (auto it = finalizers_.rbegin(); it != finalizers_.rend(); ++it) {
    if (it->destroy != nullptr) it->destroy(it->object);
  }
  finalizers_.clear();
  stats_.objects = 0;
  for (auto it = heap_allocs_.rbegin(); it != heap_allocs_.rend(); ++it) {
    ::operator delete(it->data, std::align_val_t{it->align});
  }
  heap_allocs_.clear();
  if (mode_ == Mode::heap) stats_.bytes_reserved = 0;
  stats_.bytes_allocated = 0;
  // Pooled blocks are retained for reuse; rewind the cursor.
  for (Block& block : blocks_) block.used = 0;
  current_block_ = 0;
}

}  // namespace d2dhb
