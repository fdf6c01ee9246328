/**
 * @file
 * Fixed-size worker pool for the parallel validation engine.
 *
 * Post-silicon campaigns are embarrassingly parallel across tests (the
 * paper runs one test thread per core), the offline checker verifies
 * their recorded units the same way, and inside one test the
 * overlapped decode→check channel runs its checking consumer on a pool
 * worker. All of that parallelism flows through this one pool type so
 * the engine has a single, TSan-clean place where threads are created,
 * fed, and joined.
 *
 * Design constraints (and why):
 *  - fixed worker count, resolved once: campaign results must be
 *    bit-identical at any thread count, so nothing may depend on how
 *    many workers happen to exist;
 *  - bounded task queue: a campaign can enqueue hundreds of thousands
 *    of units; the submitter blocks instead of buffering them all;
 *  - exception capture: a worker must never terminate the process —
 *    the first exception of a parallelFor is rethrown on the caller,
 *    matching what a serial loop would have done;
 *  - deterministic shutdown: the destructor drains and joins every
 *    worker, so sanitizer runs see a clean happens-before edge.
 */

#ifndef MTC_SUPPORT_THREAD_POOL_H
#define MTC_SUPPORT_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mtc
{

/** Fixed-size worker pool with a bounded queue (see file comment). */
class ThreadPool
{
  public:
    /**
     * @param threads        Worker count; 0 resolves to the hardware
     *                       concurrency (at least 1).
     * @param queue_capacity Maximum queued (not yet running) tasks;
     *                       0 resolves to 4x the worker count. submit()
     *                       blocks while the queue is full.
     */
    explicit ThreadPool(unsigned threads = 0,
                        std::size_t queue_capacity = 0);

    /** Drains the queue and joins all workers (stop(true)). */
    ~ThreadPool();

    /**
     * Shut the pool down. `drain=true` is the destructor's behavior:
     * every queued task still runs before the workers join. `drain=
     * false` is the cancellation path a tripped circuit breaker or a
     * watchdog abort takes: queued-but-unstarted tasks are discarded
     * (their destructors run, which is how a pending parallelFor
     * chunk reports itself done-without-running), only in-flight
     * tasks finish, and the workers join. Idempotent; submit() after
     * stop() drops the task. A parallelFor in flight during
     * stop(false) returns once its running chunks finish — dropped
     * indices never execute and their slots keep their initial state;
     * captured exceptions are rethrown as usual.
     */
    void stop(bool drain = true);

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    unsigned size() const { return static_cast<unsigned>(workers.size()); }

    /**
     * Enqueue one task; blocks while the queue is at capacity. The
     * task must not throw — use parallelFor for exception-carrying
     * work (a throwing submit() task terminates, as with std::thread).
     */
    void submit(std::function<void()> task);

    /**
     * Run body(0..count-1) across the workers and wait for all of
     * them. Indices are handed out through a shared counter, so any
     * assignment of index to worker is possible — the body must write
     * only to its own index's slot for deterministic results. If one
     * or more bodies throw, every remaining index still runs (slots
     * stay fully populated) and the first captured exception is
     * rethrown on the calling thread afterwards.
     */
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t)> &body);

    /**
     * Run body(0..count-1) across the workers, handing indices out in
     * ascending order, and call commit(i) on the calling thread in
     * index order, each as soon as body(0..i) have finished. Effects
     * that depend on order (appends, counters, fault lists) belong in
     * commit, which then leaves them exactly as a serial
     * `body(i); commit(i);` loop would at any worker count; a body
     * must not touch what commit writes. An exception from body(i) is
     * rethrown at slot i, after commit(0..i-1); one from commit(i)
     * propagates as is. Either way, once the failure surfaces no body
     * starts, bodies in flight finish, and then the exception
     * propagates. If stop(false) drops indices, commits end before
     * the first one.
     */
    void parallelForOrdered(std::size_t count,
                            const std::function<void(std::size_t)> &body,
                            const std::function<void(std::size_t)> &commit);

    /** Map a user-facing thread knob to a worker count: 0 means "use
     * the hardware", anything else is taken literally. */
    static unsigned resolveThreads(unsigned requested);

  private:
    void workerLoop();

    std::mutex mtx;
    std::condition_variable taskReady;   ///< queue became non-empty
    std::condition_variable queueSpace;  ///< queue dropped below capacity
    std::deque<std::function<void()>> queue;
    std::size_t capacity;
    bool stopping = false;
    bool joined = false;
    std::vector<std::thread> workers;
};

} // namespace mtc

#endif // MTC_SUPPORT_THREAD_POOL_H
