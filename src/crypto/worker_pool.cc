#include "worker_pool.hh"

#include <algorithm>

namespace ccai::crypto
{

int
WorkerPool::defaultWorkerCount()
{
    unsigned hc = std::thread::hardware_concurrency();
    // Even on a single-core host keep a couple of real workers: the
    // pool's value there is exercising the concurrent code paths
    // (and TSan), not speedup. The ceiling tracks the widest sharded
    // data-plane configuration (16 lanes).
    return std::clamp<int>(static_cast<int>(hc), 2, 16);
}

WorkerPool::WorkerPool(int maxWorkers)
    : maxWorkers_(std::max(1, maxWorkers))
{
    workers_.reserve(static_cast<std::size_t>(maxWorkers_));
    for (int i = 0; i < maxWorkers_; ++i)
        workers_.push_back(std::make_unique<Worker>());
}

WorkerPool::~WorkerPool()
{
    stopping_.store(true, std::memory_order_relaxed);
    for (auto &w : workers_) {
        {
            std::lock_guard<std::mutex> lock(w->mutex);
        }
        w->cv.notify_all();
        if (w->started)
            w->thread.join();
    }
}

int
WorkerPool::spawnedWorkers() const
{
    int n = 0;
    for (const auto &w : workers_)
        n += w->started ? 1 : 0;
    return n;
}

void
WorkerPool::ensureWorker(std::size_t index)
{
    Worker &w = *workers_[index];
    if (!w.started) {
        w.started = true;
        w.thread = std::thread([this, &w] { workerLoop(w); });
    }
}

void
WorkerPool::workerLoop(Worker &w)
{
    for (;;) {
        Task task;
        {
            std::unique_lock<std::mutex> lock(w.mutex);
            w.cv.wait(lock, [&] {
                return !w.queue.empty() ||
                       stopping_.load(std::memory_order_relaxed);
            });
            if (w.queue.empty())
                return; // stopping
            task = w.queue.front();
            w.queue.erase(w.queue.begin());
            w.queueWaitNs.sample(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - task.enqueued)
                    .count()));
        }
        runRange(task);
        workerRanges_.fetch_add(1, std::memory_order_relaxed);
        // Decrement and notify under the batch mutex: the caller can
        // only observe zero once this lock is released, and after
        // that this thread never touches the batch (which lives on
        // the caller's stack) again.
        Batch &batch = *task.batch;
        std::lock_guard<std::mutex> lock(batch.doneMutex);
        if (--batch.pendingRanges == 0)
            batch.doneCv.notify_all();
    }
}

void
WorkerPool::runRange(const Task &task)
{
    for (std::size_t i = task.begin; i < task.end; ++i)
        (*task.batch->fn)(i);
}

void
WorkerPool::parallelFor(std::size_t n, int width,
                        const std::function<void(std::size_t)> &fn)
{
    std::size_t lanes = static_cast<std::size_t>(std::max(1, width));
    lanes = std::min(lanes, n);
    if (lanes <= 1) {
        ++inlineBatches_;
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    ++parallelBatches_;
    Batch batch;
    batch.fn = &fn;
    batch.pendingRanges = lanes - 1;

    // Contiguous split; lane 0 stays on the caller. Lane k always
    // maps to worker (k-1) % workers so the decomposition — and with
    // it every per-index result — is a pure function of (n, width).
    for (std::size_t k = 1; k < lanes; ++k) {
        Task task;
        task.batch = &batch;
        task.begin = n * k / lanes;
        task.end = n * (k + 1) / lanes;
        std::size_t widx =
            (k - 1) % static_cast<std::size_t>(maxWorkers_);
        ensureWorker(widx);
        Worker &w = *workers_[widx];
        {
            std::lock_guard<std::mutex> lock(w.mutex);
            task.enqueued = std::chrono::steady_clock::now();
            w.queue.push_back(task);
        }
        w.cv.notify_one();
    }

    Task mine;
    mine.batch = &batch;
    mine.end = n / lanes;
    runRange(mine);

    std::unique_lock<std::mutex> lock(batch.doneMutex);
    batch.doneCv.wait(lock, [&] { return batch.pendingRanges == 0; });
}

obs::Histogram
WorkerPool::queueWaitHistogram() const
{
    obs::Histogram merged;
    for (const auto &w : workers_) {
        std::lock_guard<std::mutex> lock(w->mutex);
        merged.merge(w->queueWaitNs);
    }
    return merged;
}

void
WorkerPool::resetStats()
{
    parallelBatches_ = 0;
    inlineBatches_ = 0;
    workerRanges_ = 0;
    for (const auto &w : workers_) {
        std::lock_guard<std::mutex> lock(w->mutex);
        w->queueWaitNs.reset();
    }
}

WorkerPool &
WorkerPool::shared()
{
    static WorkerPool pool;
    return pool;
}

} // namespace ccai::crypto
