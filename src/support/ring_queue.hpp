// Bounded blocking queue — the socket-decode→ingest handoff of a serve
// session (trace/PipelinedTraceReader, DESIGN.md §17).
//
// One producer thread pushes decoded event blocks, one consumer thread pops
// them; capacity is fixed, and a full queue *blocks the producer* — that is
// the backpressure that keeps decode from racing arbitrarily far ahead of
// ingestion and re-inflating the memory the governor just bounded.
//
// One mutex and two condition variables guard a bounded std::deque. Items
// are whole event blocks (hundreds of events), so the queue runs at kHz,
// not MHz: a lock per handoff costs nothing measurable.
//
// close() ends the stream from either side: a blocked push unblocks and
// returns false (producer stops), and pop drains what was already queued
// before returning false (consumer sees every pushed block exactly once).
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>

namespace wolf {

template <typename T>
class RingQueue {
 public:
  // Holds at most `capacity` items (minimum 1).
  explicit RingQueue(std::size_t capacity)
      : capacity_(std::max<std::size_t>(1, capacity)) {}

  // Producer side. Blocks while the queue is full; returns false — without
  // enqueueing — once close() has been called.
  bool push(T item) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock, [&] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  // Consumer side. Blocks while the queue is empty; returns false only once
  // the queue is closed *and* drained — every pushed item is delivered.
  bool pop(T& out) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return true;
  }

  // Idempotent; callable from either side (or a third thread). Wakes every
  // sleeper so a blocked push/pop observes the close immediately.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace wolf
