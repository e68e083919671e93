/**
 * @file
 * Size-classed buffer pool for the secure data plane's hot paths.
 *
 * TLP payload copies want a few-KiB-to-few-hundred-KiB scratch
 * vector per packet; left to the general allocator that is one
 * malloc/free pair per packet on the wall-clock critical path. The pool keeps per-size-class
 * free lists of retired vectors and hands them back with their
 * capacity intact, so steady-state traffic recycles a small working
 * set instead of allocating.
 *
 * Thread-safe: worker-pool lanes acquire and release concurrently
 * with the sim thread. All operations are O(1) under one mutex.
 */

#ifndef CCAI_COMMON_BUFFER_POOL_HH
#define CCAI_COMMON_BUFFER_POOL_HH

#include <cstdint>
#include <mutex>
#include <vector>

#include "common/types.hh"

namespace ccai
{

class BufferPool
{
  public:
    /** Smallest pooled capacity; tiny control payloads bypass. */
    static constexpr std::size_t kMinPooledBytes = 1024;
    /** Largest pooled capacity; bigger requests bypass. */
    static constexpr std::size_t kMaxPooledBytes = 4 * kMiB;
    /** Retired buffers kept per size class; excess is freed. */
    static constexpr std::size_t kMaxFreePerClass = 64;

    BufferPool() = default;
    BufferPool(const BufferPool &) = delete;
    BufferPool &operator=(const BufferPool &) = delete;

    /**
     * Get a buffer of exactly @p size bytes (value-initialized only
     * when freshly allocated; recycled buffers carry stale contents —
     * callers overwrite them).
     */
    Bytes acquire(std::size_t size);

    /** Retire a buffer into its size-class free list. */
    void release(Bytes &&buf);

    /** RAII wrapper: releases the buffer on destruction. */
    class Lease
    {
      public:
        Lease() = default;
        Lease(BufferPool &pool, std::size_t size)
            : pool_(&pool), bytes_(pool.acquire(size))
        {}
        ~Lease() { reset(); }

        Lease(Lease &&o) noexcept
            : pool_(o.pool_), bytes_(std::move(o.bytes_))
        {
            o.pool_ = nullptr;
        }
        Lease &
        operator=(Lease &&o) noexcept
        {
            if (this != &o) {
                reset();
                pool_ = o.pool_;
                bytes_ = std::move(o.bytes_);
                o.pool_ = nullptr;
            }
            return *this;
        }
        Lease(const Lease &) = delete;
        Lease &operator=(const Lease &) = delete;

        Bytes &bytes() { return bytes_; }
        const Bytes &bytes() const { return bytes_; }
        std::uint8_t *data() { return bytes_.data(); }
        std::size_t size() const { return bytes_.size(); }
        bool active() const { return pool_ != nullptr; }

        /** Return the buffer to the pool now. */
        void
        reset()
        {
            if (pool_) {
                pool_->release(std::move(bytes_));
                pool_ = nullptr;
            }
            bytes_.clear();
        }

      private:
        BufferPool *pool_ = nullptr;
        Bytes bytes_;
    };

    Lease lease(std::size_t size) { return Lease(*this, size); }

    /** log2 size classes between kMinPooledBytes and kMaxPooledBytes. */
    static constexpr std::size_t kClasses = 13;

    /** Acquires served from a free list. */
    std::uint64_t hits() const;
    /** Acquires that had to allocate (or bypassed the pool). */
    std::uint64_t misses() const;
    /** Buffers currently parked across all free lists. */
    std::size_t freeBuffers() const;
    /** Pooled buffers currently acquired and not yet released. */
    std::uint64_t outstanding() const;
    /** Peak of outstanding() over the pool's lifetime. */
    std::uint64_t outstandingHighWatermark() const;
    /** Peak simultaneous outstanding buffers, per size class. */
    std::vector<std::uint64_t> classHighWatermarks() const;

    /** Drop every cached buffer (tests / memory pressure). */
    void trim();

    /** Zero the hit/miss/outstanding accounting (benches, tests). */
    void resetStats();

    /** Process-wide pool shared by all data-plane components. */
    static BufferPool &global();

  private:
    static std::size_t classIndex(std::size_t size);
    static std::size_t classCapacity(std::size_t cls);

    mutable std::mutex mutex_;
    std::vector<Bytes> free_[kClasses];
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t outstanding_ = 0;
    std::uint64_t outstandingHighWater_ = 0;
    std::uint64_t classOutstanding_[kClasses] = {};
    std::uint64_t classHighWater_[kClasses] = {};
};

} // namespace ccai

#endif // CCAI_COMMON_BUFFER_POOL_HH
