/**
 * @file
 * Bump-pointer scratch arenas for the per-read decode hot loops.
 *
 * Every per-read kernel (primer-filter alignment rows, clusterer
 * signature buffers, per-cluster BMA cost matrices, RS work buffers)
 * draws its scratch from the calling thread's arena instead of
 * heap-allocating vectors. An ArenaScope marks the bump pointer on
 * entry and rewinds it on exit, so after one warm-up pass — once the
 * chunks have grown to the high-water mark — the steady-state decode
 * loop performs zero heap allocations per read
 * (tests/arena_test.cc pins this with an operator-new counter).
 *
 * Ownership & determinism: arenas are thread_local, so each
 * ThreadPool worker owns exactly one, and it lives as long as the
 * worker. Decodes and encodes run on long-lived pools — the
 * process-wide ThreadPool::shared() unless the caller passes its own,
 * as DecodeService does — so arenas warmed by one call serve the
 * next. Scratch contents never escape an ArenaScope and never cross
 * threads, so arena reuse cannot perturb the decode pipeline's
 * byte-identical-for-any-thread-count (and any-ISA) contract.
 */

#ifndef DNASTORE_COMMON_ARENA_H
#define DNASTORE_COMMON_ARENA_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace dnastore {

/** Process-wide arena counters, for steady-state allocation tests
 *  and bench reporting. */
struct ArenaGlobalStats
{
    /** Chunks ever heap-allocated by any arena. */
    uint64_t chunks_allocated;

    /** Bytes ever reserved in those chunks. */
    uint64_t bytes_reserved;
};

/**
 * Chunked bump allocator. alloc() never invalidates earlier
 * allocations (chunks are stable); rewind() releases everything
 * allocated after a mark without freeing the chunks, so a warm arena
 * serves any number of scopes allocation-free.
 */
class Arena
{
  public:
    explicit Arena(size_t initial_chunk_bytes = 64 * 1024);

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /** Raw allocation; align must be a power of two (<= 64). */
    void *alloc(size_t bytes, size_t align);

    /** Typed array allocation; contents are uninitialized. */
    template <typename T>
    T *
    allocArray(size_t count)
    {
        static_assert(std::is_trivially_destructible_v<T>,
                      "arena memory is rewound, never destroyed");
        return static_cast<T *>(
            alloc(count * sizeof(T), alignof(T)));
    }

    /** Bump-pointer position; see ArenaScope. */
    struct Mark
    {
        size_t chunk;
        size_t offset;
    };

    Mark mark() const { return {current_, offset_}; }
    void rewind(Mark m);

    /** Chunks currently owned (never shrinks). */
    size_t chunkCount() const { return chunks_.size(); }

    /** Total bytes reserved across owned chunks. */
    size_t reservedBytes() const { return reserved_bytes_; }

    /** Process-wide counters across all arenas (atomic reads). */
    static ArenaGlobalStats globalStats();

    /** This thread's scratch arena (created on first use). */
    static Arena &scratch();

  private:
    struct Chunk
    {
        std::unique_ptr<uint8_t[]> data;
        size_t size;
    };

    void addChunk(size_t min_bytes);

    std::vector<Chunk> chunks_;
    size_t current_ = 0;
    size_t offset_ = 0;
    size_t next_chunk_bytes_;
    size_t reserved_bytes_ = 0;
};

/** RAII mark/rewind over a (usually thread-local) arena. */
class ArenaScope
{
  public:
    explicit ArenaScope(Arena &arena)
        : arena_(arena), mark_(arena.mark())
    {
    }
    ~ArenaScope() { arena_.rewind(mark_); }

    ArenaScope(const ArenaScope &) = delete;
    ArenaScope &operator=(const ArenaScope &) = delete;

  private:
    Arena &arena_;
    Arena::Mark mark_;
};

} // namespace dnastore

#endif // DNASTORE_COMMON_ARENA_H
