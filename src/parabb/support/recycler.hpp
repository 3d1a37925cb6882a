// Per-thread reuse of the search's large buffers.
//
// A sequential solve builds its vertex pool (SlotPool chunks) and its
// frontier (ActiveSet entries) from nothing, and a best-first frontier
// reaches tens of MiB. Handing that memory back to the allocator after
// every solve makes the next solve fault the same pages in again, and
// zero them. Instead, a destroyed pool's chunks and a destroyed frontier's
// buffer go to a recycler owned by the thread that released them, and the
// next pool or frontier built on that thread draws from it first.
//
// Nothing crosses threads, so there is no locking: each service worker
// thread retains its own storage. Retention is bounded by one constant,
// kRetainedBytesPerThread; storage that does not fit under it is freed at
// once, and a thread's retained storage is freed when the thread exits.
// Recycled memory is handed out uninitialised — callers write before they
// read, exactly as with fresh allocations.
#pragma once

#include <cstddef>
#include <memory>

namespace parabb {

/// Upper bound on the bytes one thread keeps for reuse, pool chunks and
/// frontier buffer together. Large enough for the biggest frontier a
/// 300k-vertex budget builds, as in the benchmark's LLB workload: at most
/// 37 default pool chunks plus an 8 MiB entry buffer. Those chunks are
/// 1 MiB for the benchmark's instances (128-byte vertices, n <= 16 and
/// m <= 4), 45 MiB in all; with 272-byte vertices they are 2.1 MiB, and
/// 86.6 MiB in all still fits.
inline constexpr std::size_t kRetainedBytesPerThread = std::size_t{96} << 20;

/// An anonymous memory mapping of whole pages that grows by remapping its
/// pages (mremap) instead of copying them into a new buffer, so it never
/// holds its contents twice and its resident size is the high-water mark of
/// what was stored in it. Contents start uninitialised.
class PageBuffer {
 public:
  PageBuffer() = default;
  PageBuffer(PageBuffer&& other) noexcept;
  PageBuffer& operator=(PageBuffer&& other) noexcept;
  PageBuffer(const PageBuffer&) = delete;
  PageBuffer& operator=(const PageBuffer&) = delete;
  ~PageBuffer();

  void* data() const noexcept { return data_; }
  std::size_t bytes() const noexcept { return bytes_; }

  /// Grows to at least `min_bytes` (rounded up to whole pages, and at least
  /// doubling), keeping the contents; the address may change. Throws
  /// std::bad_alloc when the kernel refuses the mapping.
  void grow(std::size_t min_bytes);

 private:
  void* data_ = nullptr;
  std::size_t bytes_ = 0;
};

namespace recycler {

/// A chunk of exactly `bytes` that this thread released earlier, or null.
/// Chunks of other sizes (a memory-budgeted pool's smaller ones, say) are
/// never handed out for it.
std::unique_ptr<std::byte[]> take_chunk(std::size_t bytes) noexcept;

/// Keeps `chunk`, of `bytes`, for this thread's next take_chunk(bytes) when
/// it fits under kRetainedBytesPerThread; frees it otherwise.
void give_chunk(std::unique_ptr<std::byte[]> chunk, std::size_t bytes) noexcept;

/// The frontier buffer this thread released last (empty if none).
PageBuffer take_buffer() noexcept;

/// Keeps `buffer` for this thread's next take_buffer() when it fits under
/// kRetainedBytesPerThread (a buffer already kept yields to a larger one);
/// unmaps it otherwise.
void give_buffer(PageBuffer buffer) noexcept;

/// Bytes this thread retains right now (chunks plus buffer).
std::size_t retained_bytes() noexcept;

}  // namespace recycler
}  // namespace parabb
