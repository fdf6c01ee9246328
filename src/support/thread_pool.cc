#include "support/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>

namespace mtc
{

namespace
{

/** Each chunk task of a parallel loop carries a completion guard
 * instead of reporting done inline: whether the task runs, or
 * stop(false) discards it from the queue, or submit() drops it because
 * the pool is already stopping, the guard's destruction is what
 * decrements `pending` — so the caller can never deadlock waiting on a
 * chunk the shutdown threw away. */
template <typename Shared>
struct ChunkGuard
{
    std::shared_ptr<Shared> s;

    explicit ChunkGuard(std::shared_ptr<Shared> s_arg)
        : s(std::move(s_arg))
    {}

    ~ChunkGuard()
    {
        std::lock_guard<std::mutex> lock(s->doneMtx);
        if (--s->pending == 0)
            s->done.notify_all();
    }
};

} // anonymous namespace

unsigned
ThreadPool::resolveThreads(unsigned requested)
{
    if (requested)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

ThreadPool::ThreadPool(unsigned threads, std::size_t queue_capacity)
{
    const unsigned n = resolveThreads(threads);
    capacity = queue_capacity ? queue_capacity
                              : static_cast<std::size_t>(n) * 4;
    workers.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    stop(true);
}

void
ThreadPool::stop(bool drain)
{
    // Discarded tasks must be destroyed *outside* the lock and *after*
    // the join: their destructors may run arbitrary captured state
    // (a parallelFor chunk's completion guard takes the caller's done
    // mutex), and destroying them after the workers have quiesced
    // guarantees no worker races the same task object.
    std::deque<std::function<void()>> discarded;
    {
        std::unique_lock<std::mutex> lock(mtx);
        if (joined)
            return;
        if (!drain)
            discarded.swap(queue);
        stopping = true;
    }
    taskReady.notify_all();
    queueSpace.notify_all();
    for (std::thread &worker : workers) {
        if (worker.joinable())
            worker.join();
    }
    {
        std::unique_lock<std::mutex> lock(mtx);
        joined = true;
    }
    discarded.clear();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mtx);
            taskReady.wait(lock,
                           [this] { return stopping || !queue.empty(); });
            if (queue.empty())
                return; // stopping and drained
            task = std::move(queue.front());
            queue.pop_front();
        }
        queueSpace.notify_one();
        task();
    }
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::unique_lock<std::mutex> lock(mtx);
        queueSpace.wait(lock, [this] {
            return stopping || queue.size() < capacity;
        });
        if (stopping)
            return; // shutting down; new work is dropped
        queue.push_back(std::move(task));
    }
    taskReady.notify_one();
}

void
ThreadPool::parallelFor(std::size_t count,
                        const std::function<void(std::size_t)> &body)
{
    if (!count)
        return;

    // One chunk task per worker pulling indices off a shared counter:
    // cheap dynamic load balancing without per-index queue traffic.
    struct Shared
    {
        std::atomic<std::size_t> next{0};
        std::size_t count;
        const std::function<void(std::size_t)> *body;

        std::mutex doneMtx;
        std::condition_variable done;
        std::size_t pending;
        std::exception_ptr firstError;
    };
    auto shared = std::make_shared<Shared>();
    shared->count = count;
    shared->body = &body;

    const std::size_t chunks =
        std::min<std::size_t>(count, workers.size());
    shared->pending = chunks;

    for (std::size_t c = 0; c < chunks; ++c) {
        auto done_guard = std::make_shared<ChunkGuard<Shared>>(shared);
        submit([shared, done_guard] {
            for (;;) {
                const std::size_t i =
                    shared->next.fetch_add(1, std::memory_order_relaxed);
                if (i >= shared->count)
                    break;
                try {
                    (*shared->body)(i);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(shared->doneMtx);
                    if (!shared->firstError)
                        shared->firstError = std::current_exception();
                }
            }
        });
    }

    std::unique_lock<std::mutex> lock(shared->doneMtx);
    shared->done.wait(lock, [&] { return shared->pending == 0; });
    if (shared->firstError)
        std::rethrow_exception(shared->firstError);
}

void
ThreadPool::parallelForOrdered(
    std::size_t count, const std::function<void(std::size_t)> &body,
    const std::function<void(std::size_t)> &commit)
{
    if (!count)
        return;

    struct Shared
    {
        std::atomic<std::size_t> next{0};
        std::atomic<bool> halt{false}; ///< commits ended: start no body
        std::size_t count = 0;
        const std::function<void(std::size_t)> *body = nullptr;

        std::mutex doneMtx;
        std::condition_variable done;  ///< a body or a chunk finished
        std::size_t pending = 0;       ///< chunk tasks not yet destroyed
        std::vector<std::uint8_t> finished;     ///< per index
        std::vector<std::exception_ptr> errors; ///< per index
    };
    auto shared = std::make_shared<Shared>();
    shared->count = count;
    shared->body = &body;
    shared->finished.assign(count, 0);
    shared->errors.resize(count);

    const std::size_t chunks =
        std::min<std::size_t>(count, workers.size());
    shared->pending = chunks;
    for (std::size_t c = 0; c < chunks; ++c) {
        auto done_guard = std::make_shared<ChunkGuard<Shared>>(shared);
        submit([shared, done_guard] {
            while (!shared->halt.load(std::memory_order_relaxed)) {
                const std::size_t i =
                    shared->next.fetch_add(1, std::memory_order_relaxed);
                if (i >= shared->count)
                    break;
                std::exception_ptr error;
                try {
                    (*shared->body)(i);
                } catch (...) {
                    error = std::current_exception();
                }
                {
                    std::lock_guard<std::mutex> lock(shared->doneMtx);
                    shared->errors[i] = std::move(error);
                    shared->finished[i] = 1;
                }
                shared->done.notify_all();
            }
        });
    }

    std::exception_ptr failure;
    for (std::size_t i = 0; i < count && !failure; ++i) {
        std::exception_ptr error;
        {
            std::unique_lock<std::mutex> lock(shared->doneMtx);
            shared->done.wait(lock, [&] {
                return shared->finished[i] || shared->pending == 0;
            });
            if (!shared->finished[i])
                break; // dropped by stop(false)
            error = shared->errors[i];
        }
        try {
            if (error)
                std::rethrow_exception(error);
            commit(i);
        } catch (...) {
            failure = std::current_exception();
        }
    }

    // Bodies reference the caller's state: every chunk must be gone
    // before this frame is.
    shared->halt.store(true, std::memory_order_relaxed);
    std::unique_lock<std::mutex> lock(shared->doneMtx);
    shared->done.wait(lock, [&] { return shared->pending == 0; });
    if (failure)
        std::rethrow_exception(failure);
}

} // namespace mtc
