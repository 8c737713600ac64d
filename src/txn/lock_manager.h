#ifndef ASTERIX_TXN_LOCK_MANAGER_H_
#define ASTERIX_TXN_LOCK_MANAGER_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <vector>

#include "common/status.h"

namespace asterix {
namespace txn {

using TxnId = uint64_t;

/// 2PL lock modes. Locks are taken only on primary keys (the paper: "actual
/// locks are only acquired for modifications of primary indexes and not for
/// secondary indexes"); index-operation atomicity is the job of latches
/// inside the LSM structures.
enum class LockMode { kShared, kExclusive };

/// Node-local record lock manager. Resources are opaque 64-bit ids (we use
/// hash(dataset, partition, primary key)). Conflicting requests wait up to a
/// timeout, after which the transaction gets TxnConflict (simple deadlock
/// resolution by timeout, adequate for record-level transactions that each
/// hold at most a handful of locks).
class LockManager {
 public:
  explicit LockManager(int64_t timeout_ms = 2000) : timeout_ms_(timeout_ms) {}

  Status Acquire(TxnId txn, uint64_t resource, LockMode mode);
  /// Acquires `resources` in order under one hold of the manager's mutex
  /// (released only while waiting on a conflict): a batched read takes its
  /// record locks without contending once per key.
  Status AcquireAll(TxnId txn, const std::vector<uint64_t>& resources,
                    LockMode mode);
  void Release(TxnId txn, uint64_t resource);
  void ReleaseAll(TxnId txn);

  /// Number of resources currently locked (tests/diagnostics).
  size_t ActiveLockCount();

 private:
  struct LockState {
    // txn -> mode currently granted.
    std::map<TxnId, LockMode> holders;
    int waiters = 0;
  };

  bool Compatible(const LockState& state, TxnId txn, LockMode mode) const;
  /// Acquire() with `lock` holding mu_.
  Status AcquireLocked(std::unique_lock<std::mutex>& lock, TxnId txn,
                       uint64_t resource, LockMode mode);

  std::mutex mu_;
  std::condition_variable cv_;
  std::map<uint64_t, LockState> locks_;
  std::map<TxnId, std::set<uint64_t>> txn_locks_;
  int64_t timeout_ms_;
};

}  // namespace txn
}  // namespace asterix

#endif  // ASTERIX_TXN_LOCK_MANAGER_H_
