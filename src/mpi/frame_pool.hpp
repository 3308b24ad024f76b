#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

/// Freelist allocator for mpi::Task coroutine frames.
///
/// Every simulated rank is a coroutine, and every collective call spawns
/// nested Task frames, so a cell creates frames constantly. The pool keeps
/// that off the allocator: Task::promise_type routes its `operator new`
/// through the pool bound to the current thread, freed frames park in
/// size-bucketed freelists, and the next wave (or the next same-shape cell
/// on the worker) re-uses them — steady-state cells allocate no new frames.
/// This is one leg of the MPI-layer recycling story; docs/MEMORY.md has the
/// measured numbers and docs/ARCHITECTURE.md the lifecycle.
///
/// The pool is fed from the worker's SimArena (core/arena.hpp owns one and
/// ScopedArenaBinding binds it alongside the arena), giving frames the same
/// lifecycle as the rest of the carried storage: first cell grows the pool
/// to its high-water mark, later cells recycle, the pool frees everything
/// when the worker retires. With no pool bound, frames fall back to plain
/// operator new/delete.
///
/// Safety: every block is an individually heap-allocated allocation with a
/// small header recording its bucket, so a block may be parked in any pool
/// (or plain-freed when none is bound) regardless of which pool produced it
/// — there is no carve-out slab whose owner must outlive the frame. Frames
/// never cross threads (cells are thread-confined), and a frame allocated
/// without a pool is tagged bucket 0 and always plain-freed.
namespace dfly::mpi {

class FramePool {
 public:
  FramePool() = default;
  ~FramePool();
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

  /// The pool bound to the calling thread (nullptr = plain heap frames).
  static FramePool* current();

  /// Allocation entry points used by Task::promise_type. `allocate` serves
  /// from the bound pool when one exists; `deallocate` parks poolable blocks
  /// in the bound pool, else frees them.
  static void* allocate(std::size_t bytes);
  static void deallocate(void* frame) noexcept;

  /// Frames handed out from a freelist vs. freshly heap-allocated while this
  /// pool was bound (bench_memory reports the split).
  std::uint64_t frames_recycled() const { return recycled_; }
  std::uint64_t frames_built() const { return built_; }
  /// Blocks currently parked across all buckets, and their total bytes.
  std::size_t parked_blocks() const;
  std::size_t parked_bytes() const;

  /// Free every parked block (the pool stays usable and refills on demand).
  /// SimArena::shed() calls this between retry attempts of a cell that died
  /// of memory pressure — the freelists are the one part of the carried
  /// storage the allocator cannot reclaim on its own.
  void trim();

 private:
  /// Frames are bucketed at kGranularity steps up to kMaxPooledBytes; larger
  /// (or pool-less) allocations bypass the freelists.
  static constexpr std::size_t kGranularity = 64;
  static constexpr std::size_t kMaxPooledBytes = 8192;
  static constexpr std::size_t kBuckets = kMaxPooledBytes / kGranularity;

  void* take(std::size_t bucket_bytes);
  void park(void* block, std::size_t bucket_bytes);

  std::vector<void*> buckets_[kBuckets];
  std::uint64_t recycled_{0};
  std::uint64_t built_{0};
};

/// RAII binding of a pool to the calling thread; restores the previous
/// binding on destruction, so bindings nest. Binding nullptr is a no-op.
class ScopedFramePoolBinding {
 public:
  explicit ScopedFramePoolBinding(FramePool* pool);
  ~ScopedFramePoolBinding();
  ScopedFramePoolBinding(const ScopedFramePoolBinding&) = delete;
  ScopedFramePoolBinding& operator=(const ScopedFramePoolBinding&) = delete;

 private:
  FramePool* previous_;
};

}  // namespace dfly::mpi
