/**
 * @file
 * Fixed-size wall-clock worker pool for the parallel secure data
 * plane. The simulator's notion of time stays analytic (engine and
 * Adaptor timing models), but the crypto itself is real work executed
 * inside event handlers — this pool spreads that work across host
 * cores without perturbing simulated time or event order.
 *
 * Determinism contract: parallelFor() splits [0, n) into `width`
 * contiguous ranges, lane 0 runs on the calling thread, and the call
 * does not return until every index completed. Callers keep results
 * in per-index slots and commit them serially afterwards, so the
 * observable outcome is independent of worker scheduling — a seeded
 * sim replays bit-identically at any thread count.
 */

#ifndef CCAI_CRYPTO_WORKER_POOL_HH
#define CCAI_CRYPTO_WORKER_POOL_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/stats.hh"

namespace ccai::crypto
{

/**
 * A pool of wall-clock worker threads with per-worker task queues.
 *
 * Threads are spawned lazily on the first dispatch that needs them
 * and joined in the destructor. Width (how many lanes a batch is
 * split into) is decoupled from the worker count: when a batch asks
 * for more lanes than there are workers, the extra ranges queue and
 * drain in order, so `width` is purely a decomposition parameter —
 * results never depend on the physical core count.
 */
class WorkerPool
{
  public:
    /** @param maxWorkers upper bound on spawned threads (>= 1). */
    explicit WorkerPool(int maxWorkers = defaultWorkerCount());
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /**
     * Run @p fn(i) for every i in [0, n), decomposed into @p width
     * contiguous index ranges. Lane 0 executes on the calling thread;
     * lanes 1..width-1 are queued to the workers. Blocks until all n
     * indices completed. width <= 1 (or n <= 1) runs inline with no
     * pool interaction at all.
     *
     * @p fn must only touch per-index state (disjoint output slots);
     * shared mutation belongs in the serial commit after the call.
     */
    void parallelFor(std::size_t n, int width,
                     const std::function<void(std::size_t)> &fn);

    int maxWorkers() const { return maxWorkers_; }
    /** Threads actually spawned so far. */
    int spawnedWorkers() const;

    /** Dispatched batches that actually used worker lanes. */
    std::uint64_t parallelBatches() const { return parallelBatches_; }
    /** Batches that ran inline (width or n too small). */
    std::uint64_t inlineBatches() const { return inlineBatches_; }
    /** Index ranges executed on worker threads. */
    std::uint64_t workerRanges() const { return workerRanges_; }

    /**
     * Wall-clock nanoseconds a task range waited in a worker queue
     * before a thread picked it up, merged across every worker's
     * private histogram on demand. Wall-clock data: report it in a
     * separate section from deterministic sim metrics — it varies
     * run to run and across host machines.
     */
    obs::Histogram queueWaitHistogram() const;

    /**
     * Zero every batch counter and histogram. Benches call this
     * between sweep points so each width's samples stand alone. Only
     * call from the dispatching thread with no batch in flight.
     */
    void resetStats();

    /**
     * Process-wide shared pool: the Adaptor's chunk batches and the
     * PCIe-SC's data engines all draw from one set of threads, like
     * kernel crypto worker kthreads would.
     */
    static WorkerPool &shared();

    /** hardware_concurrency with a sane floor/ceiling. */
    static int defaultWorkerCount();

  private:
    /** Shared state of one parallelFor dispatch; lives on the
     * caller's stack until every worker range has retired. */
    struct Batch
    {
        const std::function<void(std::size_t)> *fn = nullptr;
        std::mutex doneMutex;
        /** Worker ranges still running; guarded by `doneMutex`. */
        std::size_t pendingRanges = 0;
        std::condition_variable doneCv;
    };

    /** One contiguous index range of a batch. */
    struct Task
    {
        Batch *batch = nullptr;
        std::size_t begin = 0;
        std::size_t end = 0;
        /** Enqueue time for the queue-wait histogram. */
        std::chrono::steady_clock::time_point enqueued{};
    };

    /** A worker thread and its FIFO of pending ranges. */
    struct Worker
    {
        std::thread thread;
        std::mutex mutex;
        std::condition_variable cv;
        std::vector<Task> queue; ///< FIFO; guarded by `mutex`
        bool started = false;
        /** Queue-wait samples (ns); guarded by `mutex`. */
        obs::Histogram queueWaitNs;
    };

    void ensureWorker(std::size_t index);
    void workerLoop(Worker &w);
    static void runRange(const Task &task);

    int maxWorkers_;
    std::vector<std::unique_ptr<Worker>> workers_;
    std::atomic<bool> stopping_{false};

    std::uint64_t parallelBatches_ = 0; ///< dispatch-side, caller thread
    std::uint64_t inlineBatches_ = 0;
    std::atomic<std::uint64_t> workerRanges_{0};
};

} // namespace ccai::crypto

#endif // CCAI_CRYPTO_WORKER_POOL_HH
