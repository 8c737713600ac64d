#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/env.h"
#include "txn/txn_manager.h"

namespace asterix {
namespace txn {
namespace {

class TxnTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = env::NewScratchDir("txn-test"); }
  void TearDown() override { env::RemoveAll(dir_); }
  std::string dir_;
};

// ---------------------------------------------------------------------------
// Lock manager (record-level 2PL)
// ---------------------------------------------------------------------------

TEST_F(TxnTest, SharedLocksCoexist) {
  LockManager locks(100);
  ASSERT_TRUE(locks.Acquire(1, 42, LockMode::kShared).ok());
  ASSERT_TRUE(locks.Acquire(2, 42, LockMode::kShared).ok());
  EXPECT_EQ(locks.ActiveLockCount(), 1u);
  locks.ReleaseAll(1);
  locks.ReleaseAll(2);
  EXPECT_EQ(locks.ActiveLockCount(), 0u);
}

TEST_F(TxnTest, ExclusiveConflictsTimeout) {
  LockManager locks(50);
  ASSERT_TRUE(locks.Acquire(1, 42, LockMode::kExclusive).ok());
  Status st = locks.Acquire(2, 42, LockMode::kExclusive);
  EXPECT_EQ(st.code(), StatusCode::kTxnConflict);
  Status st2 = locks.Acquire(2, 42, LockMode::kShared);
  EXPECT_EQ(st2.code(), StatusCode::kTxnConflict);
  // Different resource is free.
  EXPECT_TRUE(locks.Acquire(2, 43, LockMode::kExclusive).ok());
}

TEST_F(TxnTest, ReentrantAndUpgrade) {
  LockManager locks(50);
  ASSERT_TRUE(locks.Acquire(1, 7, LockMode::kShared).ok());
  ASSERT_TRUE(locks.Acquire(1, 7, LockMode::kShared).ok());   // re-entrant
  ASSERT_TRUE(locks.Acquire(1, 7, LockMode::kExclusive).ok());  // sole holder
  // Upgrade blocked while another reader holds it.
  locks.ReleaseAll(1);
  ASSERT_TRUE(locks.Acquire(1, 7, LockMode::kShared).ok());
  ASSERT_TRUE(locks.Acquire(2, 7, LockMode::kShared).ok());
  EXPECT_EQ(locks.Acquire(1, 7, LockMode::kExclusive).code(),
            StatusCode::kTxnConflict);
}

TEST_F(TxnTest, WaiterWakesOnRelease) {
  LockManager locks(2000);
  ASSERT_TRUE(locks.Acquire(1, 9, LockMode::kExclusive).ok());
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    Status st = locks.Acquire(2, 9, LockMode::kExclusive);
    acquired = st.ok();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load());
  locks.ReleaseAll(1);
  waiter.join();
  EXPECT_TRUE(acquired.load());
}

// A batch waits at a conflicting resource holding the locks before it, as
// one Acquire per resource would, and resumes when the holder releases.
TEST_F(TxnTest, AcquireAllWaitsAtAConflictThenTakesTheRest) {
  LockManager locks(2000);
  ASSERT_TRUE(locks.Acquire(1, 6, LockMode::kExclusive).ok());
  std::atomic<bool> acquired{false};
  std::thread batch([&] {
    acquired = locks.AcquireAll(2, {5, 6, 7}, LockMode::kShared).ok();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load());
  // 5 is held and 6 waited on; 7 is not reached yet.
  EXPECT_EQ(locks.ActiveLockCount(), 2u);
  locks.ReleaseAll(1);
  batch.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_EQ(locks.ActiveLockCount(), 3u);
  locks.ReleaseAll(2);
  EXPECT_EQ(locks.ActiveLockCount(), 0u);
}

// ---------------------------------------------------------------------------
// WAL
// ---------------------------------------------------------------------------

TEST_F(TxnTest, LogAppendAndReadAll) {
  LogManager log(dir_ + "/wal");
  for (int i = 0; i < 10; ++i) {
    LogRecord rec;
    rec.txn_id = static_cast<uint64_t>(i);
    rec.type = LogType::kUpdate;
    rec.dataset_id = 5;
    rec.partition = 2;
    rec.key = {1, 2, 3};
    rec.payload = std::vector<uint8_t>(static_cast<size_t>(i), 0xab);
    auto lsn = log.Append(&rec, i % 3 == 0);
    ASSERT_TRUE(lsn.ok());
    EXPECT_EQ(lsn.value(), static_cast<uint64_t>(i + 1));
  }
  std::vector<LogRecord> records;
  ASSERT_TRUE(log.ReadAll(&records).ok());
  ASSERT_EQ(records.size(), 10u);
  EXPECT_EQ(records[3].payload.size(), 3u);
  EXPECT_EQ(records[9].lsn, 10u);
}

TEST_F(TxnTest, LsnsContinueAcrossReopen) {
  {
    LogManager log(dir_ + "/wal");
    LogRecord rec;
    rec.type = LogType::kCommit;
    ASSERT_TRUE(log.Append(&rec, true).ok());
    ASSERT_TRUE(log.Append(&rec, true).ok());
  }
  LogManager log2(dir_ + "/wal");
  LogRecord rec;
  rec.type = LogType::kCommit;
  auto lsn = log2.Append(&rec, true);
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(lsn.value(), 3u);
}

TEST_F(TxnTest, TornTailIgnored) {
  {
    LogManager log(dir_ + "/wal");
    LogRecord rec;
    rec.type = LogType::kUpdate;
    rec.payload = {1, 2, 3, 4};
    ASSERT_TRUE(log.Append(&rec, true).ok());
    ASSERT_TRUE(log.Append(&rec, true).ok());
  }
  // Simulate a crash mid-append: chop bytes off the tail.
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(env::ReadFile(dir_ + "/wal", &bytes).ok());
  bytes.resize(bytes.size() - 5);
  ASSERT_TRUE(env::WriteFileAtomic(dir_ + "/wal", bytes.data(), bytes.size()).ok());

  LogManager log2(dir_ + "/wal");
  std::vector<LogRecord> records;
  ASSERT_TRUE(log2.ReadAll(&records).ok());
  EXPECT_EQ(records.size(), 1u);  // the torn second record is dropped
}

TEST_F(TxnTest, CorruptMiddleStopsReplay) {
  {
    LogManager log(dir_ + "/wal");
    LogRecord rec;
    rec.type = LogType::kUpdate;
    rec.payload = std::vector<uint8_t>(64, 0x55);
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(log.Append(&rec, true).ok());
  }
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(env::ReadFile(dir_ + "/wal", &bytes).ok());
  bytes[bytes.size() / 2] ^= 0xff;  // corrupt the middle record's body
  ASSERT_TRUE(env::WriteFileAtomic(dir_ + "/wal", bytes.data(), bytes.size()).ok());
  LogManager log2(dir_ + "/wal");
  std::vector<LogRecord> records;
  ASSERT_TRUE(log2.ReadAll(&records).ok());
  EXPECT_LT(records.size(), 3u);  // replay stops at the checksum mismatch
}

TEST_F(TxnTest, CommitReleasesLocks) {
  TxnManager txns(dir_ + "/wal");
  TxnId t = txns.Begin();
  ASSERT_TRUE(txns.locks().Acquire(t, 1, LockMode::kExclusive).ok());
  ASSERT_TRUE(txns.locks().Acquire(t, 2, LockMode::kShared).ok());
  ASSERT_TRUE(txns.Commit(t).ok());
  EXPECT_EQ(txns.locks().ActiveLockCount(), 0u);
  // The commit record is durable.
  std::vector<LogRecord> records;
  ASSERT_TRUE(txns.log().ReadAll(&records).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].type, LogType::kCommit);
}

TEST_F(TxnTest, GroupCommitAmortizesFlushWaits) {
  LogManager log(dir_ + "/wal", /*group_commit_latency_us=*/3000);
  LogRecord rec;
  rec.type = LogType::kCommit;
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(log.Append(&rec, true).ok());
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  // 10 rapid commits share roughly one flush window, not 10 x 3ms.
  EXPECT_LT(ms, 15.0);
  EXPECT_GE(ms, 3.0);
}

}  // namespace
}  // namespace txn
}  // namespace asterix
