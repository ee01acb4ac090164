#include "util/arena.h"

#include <algorithm>

#include "util/check.h"

#if defined(__SANITIZE_ADDRESS__)
#define SAF_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SAF_ARENA_ASAN 1
#endif
#endif

#ifdef SAF_ARENA_ASAN
#include <sanitizer/asan_interface.h>
#define SAF_ARENA_POISON(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define SAF_ARENA_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define SAF_ARENA_POISON(p, n) ((void)(p), (void)(n))
#define SAF_ARENA_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace saf::util {

namespace {

std::size_t align_up(std::size_t v, std::size_t align) {
  return (v + align - 1) & ~(align - 1);
}

}  // namespace

void* Arena::allocate(std::size_t size, std::size_t align) {
  SAF_CHECK(align != 0 && (align & (align - 1)) == 0);
  if (size == 0) size = 1;
  // Advance through retained chunks until one fits. Chunks are sized
  // kChunkSize (or the request, for oversized objects), so the scan is
  // at most one step in the steady state. The first chunk is half that:
  // a short simulation (one DFS replay uses about 28 KB) then holds no
  // mostly idle 64 KB block.
  while (active_ < chunks_.size()) {
    Chunk& c = chunks_[active_];
    const auto base = reinterpret_cast<std::uintptr_t>(c.data.get());
    const std::size_t at = align_up(base + c.used, align) - base;
    if (at + size <= c.size) {
      c.used = at + size;
      bytes_allocated_ += size;
      SAF_ARENA_UNPOISON(c.data.get() + at, size);
      return c.data.get() + at;
    }
    ++active_;
  }
  const std::size_t grown = chunks_.empty() ? kChunkSize / 2 : kChunkSize;
  const std::size_t chunk_size = std::max(size + align, grown);
  chunks_.push_back(
      Chunk{std::make_unique<std::byte[]>(chunk_size), chunk_size, 0});
  active_ = chunks_.size() - 1;
  Chunk& c = chunks_.back();
  const auto base = reinterpret_cast<std::uintptr_t>(c.data.get());
  const std::size_t at = align_up(base, align) - base;
  c.used = at + size;
  bytes_allocated_ += size;
  return c.data.get() + at;
}

Arena::~Arena() {
  reset();
  for (Chunk& c : chunks_) SAF_ARENA_UNPOISON(c.data.get(), c.size);
}

void Arena::reset() {
  for (auto it = dtors_.rbegin(); it != dtors_.rend(); ++it) {
    it->fn(it->p);
  }
  dtors_.clear();
  for (Chunk& c : chunks_) {
    c.used = 0;
    SAF_ARENA_POISON(c.data.get(), c.size);
  }
  active_ = 0;
  bytes_allocated_ = 0;
}

std::size_t Arena::bytes_reserved() const {
  std::size_t total = 0;
  for (const Chunk& c : chunks_) total += c.size;
  return total;
}

}  // namespace saf::util
