#ifndef SPE_COMMON_MPMC_QUEUE_H_
#define SPE_COMMON_MPMC_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

#include "spe/common/check.h"

namespace spe {

/// Bounded multi-producer / multi-consumer queue built for micro-batch
/// serving: consumers pop *batches*, waiting a bounded time for the
/// batch to fill once the first item arrives. Producers choose their
/// backpressure policy per call — PushKeep blocks while the queue is
/// full, TryPushKeep sheds instead; both hand a refused item back.
///
/// Close() makes the queue drainable: further pushes fail, but items
/// already accepted remain poppable, and PopBatch returns them until
/// the queue is empty. This is what makes graceful shutdown "drain, do
/// not drop": a server closes the queue and workers keep popping until
/// PopBatch returns an empty batch.
///
/// A mutex + two condition variables is deliberately the whole story:
/// at serving batch sizes (tens to hundreds of rows per lock
/// acquisition) the lock is amortized far below contention levels where
/// lock-free rings pay for their complexity.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {
    SPE_CHECK_GT(capacity, 0u);
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks while the queue is full. Returns false only if the queue is
  /// closed, and then leaves `item` intact, so callers can recover
  /// move-only payloads (completion callbacks, pooled buffers) instead of
  /// losing them inside the call.
  bool PushKeep(T& item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [&] { return items_.size() < capacity_ || closed_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push: returns false when full or closed (load
  /// shedding — the caller owns telling the client "try later"), leaving
  /// `item` intact.
  bool TryPushKeep(T& item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Pops up to `max_items` into `out` (cleared first). Blocks until at
  /// least one item is available; once the first item is in hand, waits
  /// at most `max_delay` for the batch to fill before returning what it
  /// has. Returns the number popped; 0 means closed-and-drained, the
  /// consumer's signal to exit.
  std::size_t PopBatch(std::vector<T>& out, std::size_t max_items,
                       std::chrono::microseconds max_delay) {
    out.clear();
    SPE_CHECK_GT(max_items, 0u);
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return 0;  // closed and drained
    TakeLocked(out, max_items);
    if (out.size() < max_items && max_delay.count() > 0 && !closed_) {
      const auto deadline = std::chrono::steady_clock::now() + max_delay;
      while (out.size() < max_items) {
        if (!not_empty_.wait_until(lock, deadline, [&] {
              return !items_.empty() || closed_;
            })) {
          break;  // deadline hit with nothing new
        }
        if (items_.empty()) break;  // woken by Close
        TakeLocked(out, max_items);
      }
    }
    lock.unlock();
    not_full_.notify_all();
    return out.size();
  }

  /// Rejects future pushes and wakes all waiters. Items already queued
  /// stay available to PopBatch (drain semantics). Idempotent.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

 private:
  void TakeLocked(std::vector<T>& out, std::size_t max_items) {
    while (!items_.empty() && out.size() < max_items) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
    }
  }

  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  const std::size_t capacity_;
  bool closed_ = false;
};

}  // namespace spe

#endif  // SPE_COMMON_MPMC_QUEUE_H_
