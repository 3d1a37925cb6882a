#include "parabb/support/recycler.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <new>
#include <utility>
#include <vector>

namespace parabb {

PageBuffer::PageBuffer(PageBuffer&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      bytes_(std::exchange(other.bytes_, 0)) {}

PageBuffer& PageBuffer::operator=(PageBuffer&& other) noexcept {
  if (this != &other) {
    PageBuffer dying(std::move(*this));
    data_ = std::exchange(other.data_, nullptr);
    bytes_ = std::exchange(other.bytes_, 0);
  }
  return *this;
}

PageBuffer::~PageBuffer() {
  if (data_ != nullptr) ::munmap(data_, bytes_);
}

void PageBuffer::grow(std::size_t min_bytes) {
  static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  std::size_t want = std::max(min_bytes, 2 * bytes_);
  want = (want + page - 1) / page * page;
  if (want <= bytes_) return;
  void* const p =
      data_ == nullptr
          ? ::mmap(nullptr, want, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0)
          : ::mremap(data_, bytes_, want, MREMAP_MAYMOVE);
  if (p == MAP_FAILED) throw std::bad_alloc();
  data_ = p;
  bytes_ = want;
}

namespace {

struct RetainedChunk {
  std::size_t bytes = 0;
  std::unique_ptr<std::byte[]> chunk;
};

// Trivially destructible, so it stays readable while the thread's other
// thread_local objects are torn down: a pool or frontier destroyed after
// the store then frees its storage instead of touching a dead store.
thread_local bool t_store_gone = false;

struct Store {
  std::vector<RetainedChunk> chunks;
  PageBuffer buffer;
  std::size_t bytes = 0;  ///< Σ chunk bytes + buffer.bytes()

  ~Store() { t_store_gone = true; }
};

Store* store() noexcept {
  if (t_store_gone) return nullptr;
  thread_local Store s;
  return &s;
}

}  // namespace

namespace recycler {

std::unique_ptr<std::byte[]> take_chunk(std::size_t bytes) noexcept {
  Store* s = store();
  if (s == nullptr) return nullptr;
  // Newest first: with one chunk size in use this is always the last entry.
  for (std::size_t i = s->chunks.size(); i-- > 0;) {
    if (s->chunks[i].bytes != bytes) continue;
    std::unique_ptr<std::byte[]> chunk = std::move(s->chunks[i].chunk);
    s->chunks.erase(s->chunks.begin() + static_cast<std::ptrdiff_t>(i));
    s->bytes -= bytes;
    return chunk;
  }
  return nullptr;
}

void give_chunk(std::unique_ptr<std::byte[]> chunk,
                std::size_t bytes) noexcept {
  Store* s = store();
  if (s == nullptr || s->bytes + bytes > kRetainedBytesPerThread) return;
  try {
    s->chunks.push_back(RetainedChunk{bytes, std::move(chunk)});
    s->bytes += bytes;
  } catch (const std::bad_alloc&) {
    // Bookkeeping failed: the chunk is freed instead of kept.
  }
}

PageBuffer take_buffer() noexcept {
  Store* s = store();
  if (s == nullptr) return {};
  s->bytes -= s->buffer.bytes();
  return std::move(s->buffer);
}

void give_buffer(PageBuffer buffer) noexcept {
  Store* s = store();
  if (s == nullptr || buffer.bytes() <= s->buffer.bytes()) return;
  const std::size_t others = s->bytes - s->buffer.bytes();
  if (others + buffer.bytes() > kRetainedBytesPerThread) return;
  s->buffer = std::move(buffer);
  s->bytes = others + s->buffer.bytes();
}

std::size_t retained_bytes() noexcept {
  const Store* s = store();
  return s == nullptr ? 0 : s->bytes;
}

}  // namespace recycler
}  // namespace parabb
