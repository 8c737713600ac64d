#include "txn/lock_manager.h"

#include <chrono>

#include "common/journal.h"
#include "common/metrics.h"

namespace asterix {
namespace txn {

bool LockManager::Compatible(const LockState& state, TxnId txn,
                             LockMode mode) const {
  for (const auto& [holder, held_mode] : state.holders) {
    if (holder == txn) continue;  // re-entrant / upgrade handled below
    if (mode == LockMode::kExclusive || held_mode == LockMode::kExclusive) {
      return false;
    }
  }
  return true;
}

Status LockManager::Acquire(TxnId txn, uint64_t resource, LockMode mode) {
  static metrics::Counter* acquires =
      metrics::MetricsRegistry::Default().GetCounter("txn.lock.acquires");
  acquires->Inc();
  std::unique_lock<std::mutex> lock(mu_);
  return AcquireLocked(lock, txn, resource, mode);
}

Status LockManager::AcquireAll(TxnId txn,
                               const std::vector<uint64_t>& resources,
                               LockMode mode) {
  static metrics::Counter* acquires =
      metrics::MetricsRegistry::Default().GetCounter("txn.lock.acquires");
  acquires->Inc(resources.size());
  std::unique_lock<std::mutex> lock(mu_);
  for (uint64_t resource : resources) {
    ASTERIX_RETURN_NOT_OK(AcquireLocked(lock, txn, resource, mode));
  }
  return Status::OK();
}

Status LockManager::AcquireLocked(std::unique_lock<std::mutex>& lock,
                                  TxnId txn, uint64_t resource,
                                  LockMode mode) {
  auto& reg = metrics::MetricsRegistry::Default();
  static metrics::Counter* waits = reg.GetCounter("txn.lock.waits");
  static metrics::Counter* timeouts = reg.GetCounter("txn.lock.timeouts");
  static metrics::Histogram* wait_us = reg.GetHistogram("txn.lock.wait_us");
  LockState& state = locks_[resource];
  auto it = state.holders.find(txn);
  if (it != state.holders.end()) {
    if (it->second == LockMode::kExclusive || mode == LockMode::kShared) {
      return Status::OK();  // already strong enough
    }
    // Upgrade S -> X: wait until we are the only holder.
  }
  if (Compatible(state, txn, mode)) {
    state.holders[txn] = mode;
    txn_locks_[txn].insert(resource);
    return Status::OK();
  }
  waits->Inc();
  auto wait_start = std::chrono::steady_clock::now();
  auto deadline = wait_start + std::chrono::milliseconds(timeout_ms_);
  auto observe_wait = [&] {
    uint64_t us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - wait_start)
            .count());
    wait_us->Observe(us);
    journal::Journal::Default().Post(journal::EventKind::kLockWait, us,
                                     resource);
  };
  ++state.waiters;
  while (!Compatible(state, txn, mode)) {
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      --state.waiters;
      if (state.holders.empty() && state.waiters == 0) locks_.erase(resource);
      timeouts->Inc();
      observe_wait();
      return Status::TxnConflict("lock timeout on resource " +
                                 std::to_string(resource));
    }
  }
  --state.waiters;
  state.holders[txn] = mode;
  txn_locks_[txn].insert(resource);
  observe_wait();
  return Status::OK();
}

void LockManager::Release(TxnId txn, uint64_t resource) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = locks_.find(resource);
  if (it == locks_.end()) return;
  it->second.holders.erase(txn);
  if (it->second.holders.empty() && it->second.waiters == 0) {
    locks_.erase(it);
  }
  auto tit = txn_locks_.find(txn);
  if (tit != txn_locks_.end()) {
    tit->second.erase(resource);
    if (tit->second.empty()) txn_locks_.erase(tit);
  }
  cv_.notify_all();
}

void LockManager::ReleaseAll(TxnId txn) {
  std::lock_guard<std::mutex> lock(mu_);
  auto tit = txn_locks_.find(txn);
  if (tit == txn_locks_.end()) return;
  for (uint64_t resource : tit->second) {
    auto it = locks_.find(resource);
    if (it == locks_.end()) continue;
    it->second.holders.erase(txn);
    if (it->second.holders.empty() && it->second.waiters == 0) {
      locks_.erase(it);
    }
  }
  txn_locks_.erase(tit);
  cv_.notify_all();
}

size_t LockManager::ActiveLockCount() {
  std::lock_guard<std::mutex> lock(mu_);
  return locks_.size();
}

}  // namespace txn
}  // namespace asterix
