#ifndef ASTERIX_TXN_TXN_MANAGER_H_
#define ASTERIX_TXN_TXN_MANAGER_H_

#include <atomic>
#include <memory>

#include "txn/lock_manager.h"
#include "txn/log_manager.h"

namespace asterix {
namespace txn {

/// The per-node transaction subsystem: id allocation + the lock manager +
/// the WAL. AsterixDB transactions are record-level and implicit — one per
/// record inserted/deleted/validated — so there is no multi-statement state
/// to track beyond held locks.
class TxnManager {
 public:
  explicit TxnManager(std::string wal_path,
                      int64_t group_commit_latency_us = 0)
      : log_(std::move(wal_path), group_commit_latency_us) {}

  TxnId Begin() { return next_txn_.fetch_add(1); }

  /// Commit = force a COMMIT record then release locks (strict 2PL).
  Status Commit(TxnId txn);
  /// Abort = log ABORT, release locks. Callers must undo their in-memory
  /// effects (record-level ops apply effects only after locks are held, so
  /// an abort before apply needs no undo).
  Status Abort(TxnId txn);

  LockManager& locks() { return locks_; }
  LogManager& log() { return log_; }

 private:
  std::atomic<TxnId> next_txn_{1};
  LockManager locks_;
  LogManager log_;
};

}  // namespace txn
}  // namespace asterix

#endif  // ASTERIX_TXN_TXN_MANAGER_H_
