// RCU-style published pointer: single writer swaps in immutable snapshots,
// many readers load them and keep them alive as long as they need.
//
// The serve layer publishes per-shard cluster views this way: the shard's
// writer thread builds a fresh immutable view after applying a batch and
// store()s it; query threads load() whatever epoch is current and keep the
// shared_ptr alive for the duration of one query. Old epochs are reclaimed
// automatically when the last reader drops its reference — shared_ptr *is*
// the grace period.
//
// The slot itself is guarded by a mutex held only for one shared_ptr copy
// or swap (a reference-count increment), never while a view is built or
// destroyed: the writer releases the previous epoch after unlocking. A
// plain mutex gives a clean happens-before edge between store and load,
// which libstdc++ 12's atomic<shared_ptr> does not (its internal lock
// unlocks with a relaxed RMW, which ThreadSanitizer reports as a race).
#pragma once

#include <memory>
#include <mutex>

namespace spechd {

template <typename T>
class rcu_ptr {
public:
  rcu_ptr() = default;
  explicit rcu_ptr(std::shared_ptr<const T> initial) : slot_(std::move(initial)) {}

  rcu_ptr(const rcu_ptr&) = delete;
  rcu_ptr& operator=(const rcu_ptr&) = delete;

  /// Current snapshot (may be null before the first store). Waits at most
  /// for one pointer copy; the returned shared_ptr keeps the epoch alive.
  std::shared_ptr<const T> load() const {
    std::lock_guard lock(mutex_);
    return slot_;
  }

  /// Publishes a new snapshot; readers holding the old epoch keep it.
  void store(std::shared_ptr<const T> next) {
    {
      std::lock_guard lock(mutex_);
      slot_.swap(next);
    }
    // `next` now holds the previous epoch: if this was its last reference,
    // it is destroyed here, outside the lock.
  }

private:
  mutable std::mutex mutex_;
  std::shared_ptr<const T> slot_;
};

}  // namespace spechd
