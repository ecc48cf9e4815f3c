#include "support/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/counters.hpp"

namespace wolf {

namespace {

// pool.tasks counts fn invocations (serial path included) and pool.batches
// counts parallel_for_each calls; both depend on the jobs level, and
// pool.parks — a worker finding the queue momentarily empty — depends on
// raw scheduling, so all three are registered non-stable and excluded from
// byte-stable reports.
const obs::Counter kTasks("pool.tasks", /*stable=*/false);
const obs::Counter kBatches("pool.batches", /*stable=*/false);
const obs::Counter kParks("pool.parks", /*stable=*/false);

// Shared state of one parallel_for_each call. Owned via shared_ptr by the
// caller and by every queued drain task, so a worker that finishes last can
// still touch the batch after the caller has returned from its wait.
struct Batch {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t count = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};

  std::mutex mu;
  std::condition_variable cv;
  std::size_t error_index = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error;

  void record_error(std::size_t index) {
    std::lock_guard<std::mutex> lock(mu);
    if (index < error_index) {
      error_index = index;
      error = std::current_exception();
    }
  }

  // Runs indices until the cursor is exhausted. Called from workers and from
  // the caller's own thread.
  void drain() {
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      kTasks.add();
      try {
        (*fn)(i);
      } catch (...) {
        record_error(i);
      }
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == count) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    }
  }
};

}  // namespace

struct ThreadPool::Impl {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::shared_ptr<Batch>> queue;
  bool stopping = false;
  std::vector<std::thread> workers;

  void worker_loop() {
    while (true) {
      std::shared_ptr<Batch> batch;
      {
        std::unique_lock<std::mutex> lock(mu);
        if (!stopping && queue.empty()) kParks.add();
        cv.wait(lock, [&] { return stopping || !queue.empty(); });
        if (stopping && queue.empty()) return;
        batch = std::move(queue.front());
        queue.pop_front();
      }
      batch->drain();
    }
  }
};

ThreadPool::ThreadPool(int jobs) {
  jobs_ = jobs <= 0 ? hardware_jobs() : jobs;
  if (jobs_ == 1) return;  // pure inline mode: no threads, no Impl
  impl_ = new Impl;
  impl_->workers.reserve(static_cast<std::size_t>(jobs_ - 1));
  for (int i = 0; i < jobs_ - 1; ++i)
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
}

ThreadPool::~ThreadPool() {
  if (impl_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stopping = true;
  }
  impl_->cv.notify_all();
  for (std::thread& t : impl_->workers) t.join();
  delete impl_;
}

int ThreadPool::hardware_jobs() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void ThreadPool::parallel_for_each(
    std::size_t count, const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  kBatches.add();
  if (impl_ == nullptr || count == 1) {
    // Serial path: identical contract — run everything, then rethrow the
    // lowest-index exception.
    std::size_t error_index = std::numeric_limits<std::size_t>::max();
    std::exception_ptr error;
    for (std::size_t i = 0; i < count; ++i) {
      kTasks.add();
      try {
        fn(i);
      } catch (...) {
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
      }
    }
    if (error) std::rethrow_exception(error);
    return;
  }

  auto batch = std::make_shared<Batch>();
  batch->fn = &fn;
  batch->count = count;

  // One queued drain per background worker that could usefully help; the
  // cursor makes surplus drains exit immediately anyway.
  const std::size_t helpers =
      std::min(count, static_cast<std::size_t>(jobs_ - 1));
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    for (std::size_t i = 0; i < helpers; ++i) impl_->queue.push_back(batch);
  }
  impl_->cv.notify_all();

  batch->drain();

  std::unique_lock<std::mutex> lock(batch->mu);
  batch->cv.wait(lock, [&] {
    return batch->done.load(std::memory_order_acquire) == batch->count;
  });
  if (batch->error) std::rethrow_exception(batch->error);
}

}  // namespace wolf
