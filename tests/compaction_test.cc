// Background-compaction tests: the shared scheduler's dispatch invariants
// (coalescing, queue-limit rejection, flush-before-merge priority, per-tree
// flush/merge concurrency), async memtable rotation keeping data visible
// while the flush runs, sync-vs-async result equivalence across flushes,
// merges, and reopen, interrupted-merge cleanup via the validity marker's
// replaces range (including chained merges whose outputs share a sort seq),
// the inline-flush fallback for writers parked at the hard ceiling when the
// scheduler stops, soft-throttle stall accounting, the tiered merge policy,
// the with-clause merge-policy plumbing (DDL -> metadata -> reopen), the
// watchdog's compaction-backlog condition, the StatusJson compaction
// section, spatial indexes on the same core (tiered policy, pool flushes),
// and a TSan hammer over writers + readers + background maintenance on a
// B-tree and an R-tree side by side.

#include "storage/compaction.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/asterix.h"
#include "common/env.h"
#include "common/metrics.h"
#include "common/timeseries.h"
#include "common/journal.h"
#include "server/watchdog.h"
#include "storage/lsm.h"
#include "storage/lsm_rtree.h"

namespace asterix {
namespace storage {
namespace {

using adm::Value;

std::vector<uint8_t> Payload(const std::string& s) {
  return {s.begin(), s.end()};
}

// A Compactable that counts its job invocations, optionally parks inside
// the job body until released (to hold a worker busy), and records event
// order into a shared log for priority assertions.
class FakeTree : public Compactable {
 public:
  FakeTree(std::string name, std::mutex* log_mu, std::vector<std::string>* log)
      : name_(std::move(name)), log_mu_(log_mu), log_(log) {}

  Status BackgroundFlush() override { return Run("flush"); }
  Status BackgroundMerge() override { return Run("merge"); }
  const std::string& compaction_label() const override { return name_; }

  void set_blocking(bool b) { blocking_.store(b); }
  void Release() {
    blocking_.store(false);
    cv_.notify_all();
  }

  int flushes() const { return flushes_.load(); }
  int merges() const { return merges_.load(); }

 private:
  Status Run(const char* kind) {
    if (blocking_.load()) {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, std::chrono::seconds(10),
                   [&] { return !blocking_.load(); });
    }
    (std::string(kind) == "flush" ? flushes_ : merges_).fetch_add(1);
    if (log_ != nullptr) {
      std::lock_guard<std::mutex> lock(*log_mu_);
      log_->push_back(std::string(kind) + ":" + name_);
    }
    return Status::OK();
  }

  std::string name_;
  std::mutex* log_mu_;
  std::vector<std::string>* log_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<bool> blocking_{false};
  std::atomic<int> flushes_{0};
  std::atomic<int> merges_{0};
};

TEST(CompactionSchedulerTest, RunsScheduledJobs) {
  CompactionScheduler sched({/*threads=*/2, /*queue_limit=*/16});
  FakeTree tree("t", nullptr, nullptr);
  EXPECT_TRUE(sched.Schedule(&tree, CompactionJobKind::kFlush));
  EXPECT_TRUE(sched.Schedule(&tree, CompactionJobKind::kMerge));
  sched.Quiesce(&tree);
  EXPECT_EQ(tree.flushes(), 1);
  EXPECT_EQ(tree.merges(), 1);
  auto stats = sched.Stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(CompactionSchedulerTest, CoalescesDuplicateQueuedJobs) {
  CompactionScheduler sched({/*threads=*/1, /*queue_limit=*/16});
  FakeTree blocker("blocker", nullptr, nullptr);
  blocker.set_blocking(true);
  ASSERT_TRUE(sched.Schedule(&blocker, CompactionJobKind::kFlush));
  FakeTree tree("t", nullptr, nullptr);
  // The worker is parked in the blocker's job, so these stay queued — the
  // duplicates must coalesce onto the one queued entry.
  EXPECT_TRUE(sched.Schedule(&tree, CompactionJobKind::kFlush));
  EXPECT_TRUE(sched.Schedule(&tree, CompactionJobKind::kFlush));
  EXPECT_TRUE(sched.Schedule(&tree, CompactionJobKind::kFlush));
  blocker.Release();
  sched.Quiesce(&tree);
  EXPECT_EQ(tree.flushes(), 1);
  EXPECT_GE(sched.Stats().coalesced, 2u);
}

TEST(CompactionSchedulerTest, RejectsWhenQueueFull) {
  CompactionScheduler sched({/*threads=*/1, /*queue_limit=*/2});
  FakeTree blocker("blocker", nullptr, nullptr);
  blocker.set_blocking(true);
  ASSERT_TRUE(sched.Schedule(&blocker, CompactionJobKind::kFlush));
  // The blocker's job is RUNNING (not queued); give the worker a moment to
  // pick it up, then fill the 2-deep queue with jobs for other trees.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  FakeTree a("a", nullptr, nullptr), b("b", nullptr, nullptr),
      c("c", nullptr, nullptr);
  EXPECT_TRUE(sched.Schedule(&a, CompactionJobKind::kFlush));
  EXPECT_TRUE(sched.Schedule(&b, CompactionJobKind::kFlush));
  EXPECT_FALSE(sched.Schedule(&c, CompactionJobKind::kFlush));
  EXPECT_GE(sched.Stats().rejected, 1u);
  blocker.Release();
  sched.Quiesce(&a);
  sched.Quiesce(&b);
}

TEST(CompactionSchedulerTest, FlushDispatchedBeforeQueuedMerge) {
  std::mutex log_mu;
  std::vector<std::string> log;
  CompactionScheduler sched({/*threads=*/1, /*queue_limit=*/16});
  FakeTree blocker("blocker", &log_mu, &log);
  blocker.set_blocking(true);
  ASSERT_TRUE(sched.Schedule(&blocker, CompactionJobKind::kFlush));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  FakeTree a("a", &log_mu, &log), b("b", &log_mu, &log);
  // Merge queued first, flush second: the worker must still run the flush
  // first (flushes free writer memory; merges only improve reads).
  ASSERT_TRUE(sched.Schedule(&a, CompactionJobKind::kMerge));
  ASSERT_TRUE(sched.Schedule(&b, CompactionJobKind::kFlush));
  blocker.Release();
  sched.Quiesce(&a);
  sched.Quiesce(&b);
  std::lock_guard<std::mutex> lock(log_mu);
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[1], "flush:b");
  EXPECT_EQ(log[2], "merge:a");
}

// A flush and a merge on the SAME tree must be allowed to run at the same
// time (a long merge pinning the rotated memtable would stall ingest).
// Each job waits for the other to start; if the scheduler serialized them
// per tree the waits would time out.
TEST(CompactionSchedulerTest, FlushAndMergeOverlapPerTree) {
  class RendezvousTree : public Compactable {
   public:
    Status BackgroundFlush() override { return Meet(&flush_in_, &merge_in_); }
    Status BackgroundMerge() override { return Meet(&merge_in_, &flush_in_); }
    const std::string& compaction_label() const override { return name_; }
    bool overlapped() const { return overlapped_.load(); }

   private:
    Status Meet(std::atomic<bool>* mine, std::atomic<bool>* other) {
      mine->store(true);
      cv_.notify_all();
      std::unique_lock<std::mutex> lock(mu_);
      if (cv_.wait_for(lock, std::chrono::seconds(10),
                       [&] { return other->load(); })) {
        overlapped_.store(true);
      }
      return Status::OK();
    }
    std::string name_ = "rendezvous";
    std::mutex mu_;
    std::condition_variable cv_;
    std::atomic<bool> flush_in_{false};
    std::atomic<bool> merge_in_{false};
    std::atomic<bool> overlapped_{false};
  };
  CompactionScheduler sched({/*threads=*/2, /*queue_limit=*/16});
  RendezvousTree tree;
  ASSERT_TRUE(sched.Schedule(&tree, CompactionJobKind::kFlush));
  ASSERT_TRUE(sched.Schedule(&tree, CompactionJobKind::kMerge));
  sched.Quiesce(&tree);
  EXPECT_TRUE(tree.overlapped());
}

class CompactionLsmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = env::NewScratchDir("compaction-test");
    cache_ = std::make_unique<BufferCache>(512);
  }
  void TearDown() override { env::RemoveAll(dir_); }

  LsmOptions AsyncOpts(CompactionScheduler* sched, size_t budget = 4096) {
    LsmOptions o;
    o.mem_budget_bytes = budget;
    o.merge_policy = MergePolicy::Constant(4);
    o.scheduler = sched;
    return o;
  }

  std::string dir_;
  std::unique_ptr<BufferCache> cache_;
};

TEST_F(CompactionLsmTest, AsyncRotationKeepsDataVisible) {
  CompactionScheduler sched({/*threads=*/2, /*queue_limit=*/64});
  LsmBTree t(cache_.get(), dir_, "a", AsyncOpts(&sched));
  ASSERT_TRUE(t.Open().ok());
  // Cross the budget many times; every key must remain visible throughout,
  // whether it currently lives in mem_, the rotated imm_, or a flushed
  // component.
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(
        t.Upsert({Value::Int64(i)}, Payload(std::string(60, 'x')), i + 1).ok());
    if (i % 37 == 0) {
      bool found = false;
      std::vector<uint8_t> p;
      ASSERT_TRUE(t.PointLookup({Value::Int64(i / 2)}, &found, &p).ok());
      EXPECT_TRUE(found) << i;
    }
  }
  // Barrier: after Flush the memtables are empty and everything is durable.
  ASSERT_TRUE(t.Flush().ok());
  EXPECT_EQ(t.mem_entries(), 0u);
  EXPECT_GT(t.num_disk_components(), 0u);
  size_t n = 0;
  ASSERT_TRUE(t.RangeScan({}, [&](const IndexEntry&) {
                 ++n;
                 return Status::OK();
               }).ok());
  EXPECT_EQ(n, 400u);
}

TEST_F(CompactionLsmTest, SyncAndAsyncProduceIdenticalResults) {
  CompactionScheduler sched({/*threads=*/2, /*queue_limit=*/64});
  auto cache2 = std::make_unique<BufferCache>(512);
  std::string sync_dir = env::NewScratchDir("compaction-sync");

  LsmOptions sync_opts = AsyncOpts(nullptr);
  sync_opts.scheduler = nullptr;

  auto apply = [](LsmBTree* t) {
    uint64_t lsn = 0;
    for (int i = 0; i < 600; ++i) {
      int64_t k = i % 137;
      ASSERT_TRUE(t->Upsert({Value::Int64(k)},
                            Payload("v" + std::to_string(i)), ++lsn)
                      .ok());
      if (i % 7 == 0) {
        ASSERT_TRUE(t->Delete({Value::Int64((i * 3) % 137)}, ++lsn).ok());
      }
    }
    ASSERT_TRUE(t->Flush().ok());
    ASSERT_TRUE(t->MaybeMerge().ok());
  };
  auto collect = [](LsmBTree* t) {
    std::map<int64_t, std::string> out;
    EXPECT_TRUE(t->RangeScan({}, [&](const IndexEntry& e) {
                   out[e.key[0].AsInt()] =
                       std::string(e.payload.begin(), e.payload.end());
                   return Status::OK();
                 }).ok());
    return out;
  };

  std::map<int64_t, std::string> sync_seen, async_seen;
  {
    LsmBTree sync_t(cache2.get(), sync_dir, "a", sync_opts);
    ASSERT_TRUE(sync_t.Open().ok());
    apply(&sync_t);
    sync_seen = collect(&sync_t);
  }
  {
    LsmBTree async_t(cache_.get(), dir_, "a", AsyncOpts(&sched));
    ASSERT_TRUE(async_t.Open().ok());
    apply(&async_t);
    async_seen = collect(&async_t);
  }
  EXPECT_FALSE(sync_seen.empty());
  EXPECT_EQ(sync_seen, async_seen);

  // Both survive reopen with the same contents (recovery path).
  {
    LsmBTree async_t(cache_.get(), dir_, "a", AsyncOpts(&sched));
    ASSERT_TRUE(async_t.Open().ok());
    EXPECT_EQ(collect(&async_t), sync_seen);
  }
  env::RemoveAll(sync_dir);
}

// Crash between a merge output's MarkValid and the deletion of its inputs:
// on recovery the output's `replaces` range identifies the leftover inputs,
// which must be removed (otherwise the tree would double-resolve them).
TEST_F(CompactionLsmTest, RecoverCompletesInterruptedMergeCleanup) {
  CompactionScheduler sched({/*threads=*/2, /*queue_limit=*/64});
  {
    LsmBTree t(cache_.get(), dir_, "a", AsyncOpts(&sched, 1 << 20));
    ASSERT_TRUE(t.Open().ok());
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(
          t.Upsert({Value::Int64(i)}, Payload("v" + std::to_string(i)), i + 1)
              .ok());
      if ((i + 1) % 10 == 0) ASSERT_TRUE(t.Flush().ok());
    }
    ASSERT_EQ(t.num_disk_components(), 3u);
  }
  // Forge the crash state: merge components [1..3] into an output file with
  // a fresh file seq, mark it valid with sort seq 3 replacing [1,3] — but
  // "crash" before deleting the inputs (leave them on disk, markers and
  // all). A real merged component file is needed since recovery opens it;
  // cheat by copying component 3's file (contents don't matter for the
  // cleanup assertion, resolution is by seq).
  {
    LsmLifecycle forge(dir_, "a", "btr");
    auto recovered = forge.Recover();
    ASSERT_TRUE(recovered.ok());
    ASSERT_EQ(recovered.value().size(), 3u);
    uint64_t file_seq = forge.AllocateSeq();
    std::string src = recovered.value()[2].path;
    std::vector<uint8_t> data;
    ASSERT_TRUE(env::ReadFile(src, &data).ok());
    ASSERT_TRUE(
        env::WriteFileAtomic(forge.ComponentPath(file_seq), data.data(),
                             data.size())
            .ok());
    ASSERT_TRUE(forge.MarkValid(file_seq, recovered.value()[2].num_entries,
                                /*max_lsn=*/30, /*sort_seq=*/3,
                                /*replaces_lo=*/1, /*replaces_hi=*/3)
                    .ok());
  }
  // Reopen: the three leftover inputs must be gone, only the merge output
  // (sorting at seq 3) must remain, and the data must still read clean.
  {
    LsmBTree t(cache_.get(), dir_, "a", AsyncOpts(&sched, 1 << 20));
    ASSERT_TRUE(t.Open().ok());
    EXPECT_EQ(t.num_disk_components(), 1u);
    bool found = false;
    std::vector<uint8_t> p;
    ASSERT_TRUE(t.PointLookup({Value::Int64(25)}, &found, &p).ok());
    EXPECT_TRUE(found);
  }
  // And the input files really were deleted, not just hidden.
  std::vector<std::string> names;
  ASSERT_TRUE(env::ListDir(dir_, &names).ok());
  size_t components = 0;
  for (const auto& n : names) {
    if (n.find(".btr") != std::string::npos &&
        n.find(".valid") == std::string::npos) {
      ++components;
    }
  }
  EXPECT_EQ(components, 1u);
}

// Chained merges: a merge output's marker keeps its replaces range for the
// output's whole lifetime, and when a second merge uses that output as its
// *newest* input, the second output inherits the same sort seq — so after a
// crash in the second merge's install window, both outputs' ranges match
// each other. Recovery must keep exactly the newest output (applying ranges
// newest-output-first and never letting a range reach a newer file), not
// mutually delete both outputs and lose the data.
TEST_F(CompactionLsmTest, RecoverSurvivesChainedMergeCrash) {
  CompactionScheduler sched({/*threads=*/2, /*queue_limit=*/64});
  {
    LsmBTree t(cache_.get(), dir_, "a", AsyncOpts(&sched, 1 << 20));
    ASSERT_TRUE(t.Open().ok());
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(
          t.Upsert({Value::Int64(i)}, Payload("v" + std::to_string(i)), i + 1)
              .ok());
      if ((i + 1) % 10 == 0) ASSERT_TRUE(t.Flush().ok());
    }
    ASSERT_EQ(t.num_disk_components(), 3u);
  }
  // The forged merge outputs need real openable contents: build a single
  // fully-merged component holding all 30 keys in a scratch dir and reuse
  // its file bytes for both outputs.
  std::string dir2 = env::NewScratchDir("compaction-chain");
  auto cache2 = std::make_unique<BufferCache>(512);
  std::vector<uint8_t> full_data;
  {
    LsmOptions o;
    o.mem_budget_bytes = 1 << 20;
    o.merge_policy = MergePolicy::None();
    LsmBTree full(cache2.get(), dir2, "a", o);
    ASSERT_TRUE(full.Open().ok());
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(full.Upsert({Value::Int64(i)},
                              Payload("v" + std::to_string(i)), i + 1)
                      .ok());
    }
    ASSERT_TRUE(full.Flush().ok());
    LsmLifecycle probe(dir2, "a", "btr");
    auto r = probe.Recover();
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.value().size(), 1u);
    ASSERT_TRUE(env::ReadFile(r.value()[0].path, &full_data).ok());
  }
  // Forge the chained crash state over components [1,2,3]:
  //  - merge 1 combined [2,3] into O1 (file seq 4, sort seq 3, replaces
  //    [2,3]) and *completed* its install — inputs 2 and 3 are gone, but
  //    O1's marker still declares the range;
  //  - merge 2 combined [1, O1] into O2 (file seq 5) — O1 is its newest
  //    input, so O2 also sorts at seq 3, replaces [1,3] — and "crashed"
  //    between MarkValid and input deletion.
  {
    LsmLifecycle forge(dir_, "a", "btr");
    auto recovered = forge.Recover();
    ASSERT_TRUE(recovered.ok());
    ASSERT_EQ(recovered.value().size(), 3u);
    const auto& comps = recovered.value();
    uint64_t o1_seq = forge.AllocateSeq();
    ASSERT_TRUE(env::WriteFileAtomic(forge.ComponentPath(o1_seq),
                                     full_data.data(), full_data.size())
                    .ok());
    ASSERT_TRUE(forge.MarkValid(o1_seq, 20, /*max_lsn=*/30, /*sort_seq=*/3,
                                /*replaces_lo=*/2, /*replaces_hi=*/3)
                    .ok());
    ASSERT_TRUE(forge.RemoveComponent(comps[1]).ok());
    ASSERT_TRUE(forge.RemoveComponent(comps[2]).ok());
    uint64_t o2_seq = forge.AllocateSeq();
    ASSERT_TRUE(env::WriteFileAtomic(forge.ComponentPath(o2_seq),
                                     full_data.data(), full_data.size())
                    .ok());
    ASSERT_TRUE(forge.MarkValid(o2_seq, 30, /*max_lsn=*/30, /*sort_seq=*/3,
                                /*replaces_lo=*/1, /*replaces_hi=*/3)
                    .ok());
  }
  // Reopen: recovery keeps exactly O2 and all the data still reads.
  {
    LsmBTree t(cache_.get(), dir_, "a", AsyncOpts(&sched, 1 << 20));
    ASSERT_TRUE(t.Open().ok());
    EXPECT_EQ(t.num_disk_components(), 1u);
    for (int64_t k : {0, 12, 29}) {
      bool found = false;
      std::vector<uint8_t> p;
      ASSERT_TRUE(t.PointLookup({Value::Int64(k)}, &found, &p).ok());
      EXPECT_TRUE(found) << k;
    }
  }
  // On disk: exactly one data file, and it is the newest output (file 5),
  // not the stale first output or a leftover input.
  std::vector<std::string> names;
  ASSERT_TRUE(env::ListDir(dir_, &names).ok());
  size_t data_files = 0;
  bool newest_alive = false;
  for (const auto& n : names) {
    if (n.find(".btr") != std::string::npos &&
        n.find(".valid") == std::string::npos) {
      ++data_files;
      if (n.find("c000000000005") != std::string::npos) newest_alive = true;
    }
  }
  EXPECT_EQ(data_files, 1u);
  EXPECT_TRUE(newest_alive);
  env::RemoveAll(dir2);
}

// While the one worker is parked, budget trips cannot flush: writers must
// soft-throttle (recorded as write stalls) yet keep succeeding, and all
// data must surface once the pool drains.
TEST_F(CompactionLsmTest, ThrottleRecordsStallsWhilePoolIsBusy) {
  auto* stall_h = metrics::MetricsRegistry::Default().GetHistogram(
      "storage.lsm.write_stall_us");
  stall_h->Reset();
  CompactionScheduler sched({/*threads=*/1, /*queue_limit=*/64});
  std::mutex log_mu;
  FakeTree blocker("blocker", nullptr, nullptr);
  blocker.set_blocking(true);
  ASSERT_TRUE(sched.Schedule(&blocker, CompactionJobKind::kFlush));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  LsmBTree t(cache_.get(), dir_, "a", AsyncOpts(&sched, /*budget=*/2048));
  ASSERT_TRUE(t.Open().ok());
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(
        t.Upsert({Value::Int64(i)}, Payload(std::string(60, 'x')), i + 1).ok());
  }
  EXPECT_GT(stall_h->count(), 0u);
  blocker.Release();
  ASSERT_TRUE(t.Flush().ok());
  size_t n = 0;
  ASSERT_TRUE(t.RangeScan({}, [&](const IndexEntry&) {
                 ++n;
                 return Status::OK();
               }).ok());
  EXPECT_EQ(n, 120u);
}

// Stop() drops queued jobs without running them. A writer blocked at the
// hard memory ceiling is waiting for exactly such a queued flush to clear
// imm_ — it must detect that the scheduler no longer accepts work for the
// tree and fall back to an inline flush instead of blocking forever.
TEST_F(CompactionLsmTest, CeilingWriterFallsBackInlineWhenSchedulerStops) {
  CompactionScheduler sched({/*threads=*/1, /*queue_limit=*/64});
  FakeTree blocker("blocker", nullptr, nullptr);
  blocker.set_blocking(true);
  ASSERT_TRUE(sched.Schedule(&blocker, CompactionJobKind::kFlush));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // worker parked

  LsmBTree t(cache_.get(), dir_, "a", AsyncOpts(&sched, /*budget=*/2048));
  ASSERT_TRUE(t.Open().ok());
  // Drive the tree past the hard ceiling (3x budget): the rotation's flush
  // stays queued behind the parked worker, so after the soft-throttle band
  // is exhausted the writer blocks waiting for imm_ to clear.
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(
          t.Upsert({Value::Int64(i)}, Payload(std::string(60, 'x')), i + 1)
              .ok());
    }
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  // Stop() drops the tree's queued flush. The blocked writer must recover
  // via the inline-flush fallback while Stop() is still joining the worker.
  std::thread stopper([&] { sched.Stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  blocker.Release();  // lets Stop() finish joining
  stopper.join();
  writer.join();
  EXPECT_TRUE(done.load());
  size_t n = 0;
  ASSERT_TRUE(t.RangeScan({}, [&](const IndexEntry&) {
                 ++n;
                 return Status::OK();
               }).ok());
  EXPECT_EQ(n, 200u);
}

TEST_F(CompactionLsmTest, TieredPolicyCollapsesSimilarSizedRun) {
  LsmOptions o;
  o.mem_budget_bytes = 1 << 20;
  o.merge_policy = MergePolicy::Tiered(/*k=*/3, /*ratio_x100=*/120);
  LsmBTree t(cache_.get(), dir_, "a", o);
  ASSERT_TRUE(t.Open().ok());
  // Four equal-size flushed components form one similar-sized run past the
  // k=3 trigger; the policy must collapse it.
  for (int c = 0; c < 4; ++c) {
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(t.Upsert({Value::Int64(c * 20 + i)},
                           Payload(std::string(50, 'x')), c * 20 + i + 1)
                      .ok());
    }
    ASSERT_TRUE(t.Flush().ok());
  }
  EXPECT_LT(t.num_disk_components(), 4u);
  size_t n = 0;
  ASSERT_TRUE(t.RangeScan({}, [&](const IndexEntry&) {
                 ++n;
                 return Status::OK();
               }).ok());
  EXPECT_EQ(n, 80u);
}

// Spatial indexes run on the shared LSM core, so they honour every merge
// policy: tiering keeps one large old component out of the merge of the six
// newer small ones (a constant policy would rewrite all seven into one).
TEST_F(CompactionLsmTest, RTreeTieredPolicyKeepsLargeComponentOut) {
  auto point = [](int64_t i) {
    double x = static_cast<double>(i % 100), y = static_cast<double>(i / 100);
    return Mbr{x, y, x, y};
  };
  LsmOptions o;
  o.mem_budget_bytes = 1 << 20;
  o.merge_policy = MergePolicy::None();
  {
    LsmRTree t(cache_.get(), dir_, "r", o);
    ASSERT_TRUE(t.Open().ok());
    for (int64_t i = 0; i < 2000; ++i) {
      ASSERT_TRUE(t.Upsert({Value::Int64(i)}, point(i), i + 1).ok());
    }
    ASSERT_TRUE(t.Flush().ok());
    for (int64_t c = 0; c < 5; ++c) {
      for (int64_t i = 0; i < 10; ++i) {
        int64_t k = 2000 + c * 10 + i;
        ASSERT_TRUE(t.Upsert({Value::Int64(k)}, point(k), k + 1).ok());
      }
      ASSERT_TRUE(t.Flush().ok());
    }
    ASSERT_EQ(t.num_disk_components(), 6u);
  }
  o.merge_policy = MergePolicy::Tiered(/*k=*/5, /*ratio_x100=*/120);
  LsmRTree t(cache_.get(), dir_, "r", o);
  ASSERT_TRUE(t.Open().ok());
  for (int64_t k = 2050; k < 2060; ++k) {
    ASSERT_TRUE(t.Upsert({Value::Int64(k)}, point(k), k + 1).ok());
  }
  ASSERT_TRUE(t.Flush().ok());
  EXPECT_EQ(t.num_disk_components(), 2u);
  std::vector<int64_t> pks;
  ASSERT_TRUE(t.Search(Mbr{-1, -1, 1000, 1000}, [&](const RTreeEntry& e) {
                 pks.push_back(e.key[0].AsInt());
                 return Status::OK();
               }).ok());
  ASSERT_EQ(pks.size(), 2060u);
  for (size_t i = 0; i < pks.size(); ++i) EXPECT_EQ(pks[i], int64_t(i));
}

// A spatial index under a scheduler rotates and flushes on the pool (the
// writer never builds a component), journals its flushes under its own
// label, and every entry stays searchable throughout.
TEST_F(CompactionLsmTest, RTreeFlushesOnThePool) {
  CompactionScheduler sched({/*threads=*/2, /*queue_limit=*/64});
  uint64_t min_seq = journal::Journal::Default().posted();
  LsmRTree t(cache_.get(), dir_, "spatial", AsyncOpts(&sched, 2048));
  ASSERT_TRUE(t.Open().ok());
  const Mbr everything{-1, -1, 1000, 1000};
  for (int64_t i = 0; i < 400; ++i) {
    double x = static_cast<double>(i % 20), y = static_cast<double>(i / 20);
    ASSERT_TRUE(t.Upsert({Value::Int64(i)}, Mbr{x, y, x, y}, i + 1).ok());
    if (i % 25 == 0) {
      size_t n = 0;
      ASSERT_TRUE(t.Search(everything, [&](const RTreeEntry&) {
                     ++n;
                     return Status::OK();
                   }).ok());
      EXPECT_EQ(n, static_cast<size_t>(i + 1));
    }
  }
  ASSERT_TRUE(t.Flush().ok());
  EXPECT_GT(sched.Stats().completed, 0u);
  EXPECT_EQ(t.mem_entries(), 0u);
  size_t flush_events = 0;
  for (const auto& e : journal::Journal::Default().Snapshot(min_seq)) {
    if ((e.kind == journal::EventKind::kLsmFlushStart ||
         e.kind == journal::EventKind::kLsmFlushEnd) &&
        std::string(e.label) == "spatial") {
      ++flush_events;
    }
  }
  EXPECT_GT(flush_events, 0u);
  size_t n = 0;
  ASSERT_TRUE(t.Search(everything, [&](const RTreeEntry&) {
                 ++n;
                 return Status::OK();
               }).ok());
  EXPECT_EQ(n, 400u);
}

TEST(MergePolicyNameTest, RoundTripsAndRejectsUnknown) {
  MergePolicy p;
  ASSERT_TRUE(MergePolicyFromName("none", &p));
  EXPECT_EQ(p.kind, MergePolicy::Kind::kNone);
  ASSERT_TRUE(MergePolicyFromName("constant", &p));
  EXPECT_EQ(p.kind, MergePolicy::Kind::kConstant);
  ASSERT_TRUE(MergePolicyFromName("prefix", &p));
  EXPECT_EQ(p.kind, MergePolicy::Kind::kPrefix);
  ASSERT_TRUE(MergePolicyFromName("tiered", &p));
  EXPECT_EQ(p.kind, MergePolicy::Kind::kTiered);
  EXPECT_FALSE(MergePolicyFromName("bogus", &p));
  EXPECT_EQ(std::string(MergePolicyName(MergePolicy::Kind::kTiered)),
            "tiered");
}

// ---------------------------------------------------------------------------
// End-to-end: with-clause -> metadata -> reopen, status surface, watchdog
// ---------------------------------------------------------------------------

TEST(CompactionE2eTest, WithClauseMergePolicySurvivesReopen) {
  std::string dir = env::NewScratchDir("compaction-e2e");
  {
    api::InstanceConfig config;
    config.base_dir = dir;
    api::AsterixInstance db(config);
    ASSERT_TRUE(db.Boot().ok());
    auto ddl = db.Execute(R"aql(
create dataverse Cv; use dataverse Cv;
create type T as { id: int64, v: int64 }
create dataset D(T) primary key id with { "merge-policy": "tiered" };
)aql");
    ASSERT_TRUE(ddl.ok()) << ddl.status().ToString();
    // Unknown policy names are a DDL-time error, not a silent default.
    auto bad = db.Execute(R"aql(
use dataverse Cv;
create type T2 as { id: int64 }
create dataset Bad(T2) primary key id with { "merge-policy": "noneexistent" };
)aql");
    EXPECT_FALSE(bad.ok());
    auto ins = db.Execute(R"aql(
use dataverse Cv;
insert into dataset D ({ "id": 1, "v": 10 })
)aql");
    ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  }
  // Reopen: the policy must come back from the metadata dataset and the
  // data must still be there.
  {
    api::InstanceConfig config;
    config.base_dir = dir;
    api::AsterixInstance db(config);
    ASSERT_TRUE(db.Boot().ok());
    auto q = db.Execute(R"aql(
use dataverse Cv;
for $d in dataset D return $d
)aql");
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    EXPECT_EQ(q.value().values.size(), 1u);
    auto meta = db.Execute(R"aql(
use dataverse Metadata;
for $d in dataset Dataset where $d.DatasetName = "D" return $d.MergePolicy
)aql");
    ASSERT_TRUE(meta.ok()) << meta.status().ToString();
    ASSERT_EQ(meta.value().values.size(), 1u);
    EXPECT_NE(meta.value().values[0].ToString().find("tiered"),
              std::string::npos);
  }
  env::RemoveAll(dir);
}

TEST(CompactionE2eTest, StatusJsonHasCompactionSection) {
  std::string dir = env::NewScratchDir("compaction-status");
  api::InstanceConfig config;
  config.base_dir = dir;
  api::AsterixInstance db(config);
  ASSERT_TRUE(db.Boot().ok());
  ASSERT_NE(db.compaction(), nullptr);
  std::string status = db.StatusJson();
  EXPECT_NE(status.find("\"compaction\""), std::string::npos);
  EXPECT_NE(status.find("\"queued_flush\""), std::string::npos);
  std::string sched = db.compaction()->StatsJson();
  EXPECT_NE(sched.find("\"enabled\": true"), std::string::npos);
  env::RemoveAll(dir);
}

TEST(CompactionWatchdogTest, BacklogEscalatesToCritical) {
  server::WatchdogOptions opts;
  opts.compaction_backlog_critical_samples = 3;
  server::HealthWatchdog dog(opts);
  monitor::TimeSeriesRing ring(32);
  auto sample = [](uint64_t ts_us, int64_t queued) {
    monitor::Sample s;
    s.ts_us = ts_us;
    s.values = {{"storage.compaction.queued", queued},
                {"storage.compaction.running", 2}};
    return s;
  };
  ring.Push(sample(1'000'000, 0));
  dog.Evaluate(ring);
  EXPECT_EQ(dog.overall(), server::HealthState::kOk);
  // Backlog at/above the warn depth: warn immediately, critical only after
  // a sustained streak.
  ring.Push(sample(2'000'000, 12));
  dog.Evaluate(ring);
  EXPECT_EQ(dog.overall(), server::HealthState::kWarn);
  ring.Push(sample(3'000'000, 12));
  dog.Evaluate(ring);
  ring.Push(sample(4'000'000, 12));
  dog.Evaluate(ring);
  EXPECT_EQ(dog.overall(), server::HealthState::kCritical);
  bool found = false;
  for (const auto& c : dog.Conditions()) {
    if (c.name == "compaction_backlog") {
      found = true;
      EXPECT_NE(c.detail.find("12 jobs queued"), std::string::npos);
    }
  }
  EXPECT_TRUE(found);
  // Draining the queue recovers.
  ring.Push(sample(5'000'000, 0));
  dog.Evaluate(ring);
  EXPECT_EQ(dog.overall(), server::HealthState::kOk);
}

// ---------------------------------------------------------------------------
// Hammer (the TSan target): concurrent writers, readers, and background
// maintenance on a B-tree and an R-tree sharing one pool, then a barrier +
// reopen.
// ---------------------------------------------------------------------------

Mbr PointOf(int64_t key) {
  double x = static_cast<double>(key % 97), y = static_cast<double>(key / 97);
  return Mbr{x, y, x, y};
}

TEST_F(CompactionLsmTest, HammerWritersReadersAndMaintenance) {
  CompactionScheduler sched({/*threads=*/3, /*queue_limit=*/64});
  constexpr int kWriters = 3;
  constexpr int kReaders = 2;
  constexpr int kPerWriter = 300;
  {
    LsmBTree t(cache_.get(), dir_, "a", AsyncOpts(&sched, /*budget=*/4096));
    ASSERT_TRUE(t.Open().ok());
    LsmRTree rt(cache_.get(), dir_, "r", AsyncOpts(&sched, /*budget=*/4096));
    ASSERT_TRUE(rt.Open().ok());
    std::atomic<bool> stop{false};
    std::atomic<int> write_errors{0};
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        for (int i = 0; i < kPerWriter; ++i) {
          int64_t key = w * kPerWriter + i;
          uint64_t lsn = static_cast<uint64_t>(key) + 1;
          Status st =
              (i % 11 == 10)
                  ? t.Delete({Value::Int64(key - 1)}, lsn)
                  : t.Upsert({Value::Int64(key)},
                             Payload(std::string(40, 'a' + (key % 26))), lsn);
          if (!st.ok()) write_errors.fetch_add(1);
          // The same write on the spatial index: a point per key, and the
          // deleted key's point on its tombstone.
          st = (i % 11 == 10) ? rt.Delete({Value::Int64(key - 1)},
                                          PointOf(key - 1), lsn)
                              : rt.Upsert({Value::Int64(key)}, PointOf(key),
                                          lsn);
          if (!st.ok()) write_errors.fetch_add(1);
        }
      });
    }
    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back([&] {
        while (!stop.load()) {
          bool found = false;
          std::vector<uint8_t> p;
          (void)t.PointLookup({Value::Int64(42)}, &found, &p);
          size_t n = 0;
          (void)t.RangeScan({}, [&](const IndexEntry&) {
            ++n;
            return Status::OK();
          });
          (void)rt.Search(Mbr{0, 0, 50, 50}, [&](const RTreeEntry&) {
            ++n;
            return Status::OK();
          });
        }
      });
    }
    for (int w = 0; w < kWriters; ++w) threads[static_cast<size_t>(w)].join();
    stop.store(true);
    for (size_t i = kWriters; i < threads.size(); ++i) threads[i].join();
    EXPECT_EQ(write_errors.load(), 0);
    ASSERT_TRUE(t.Flush().ok());
    ASSERT_TRUE(rt.Flush().ok());
  }
  // Reopen and verify a stable read of everything that survived.
  LsmBTree t(cache_.get(), dir_, "a", AsyncOpts(&sched, /*budget=*/4096));
  ASSERT_TRUE(t.Open().ok());
  size_t n = 0;
  ASSERT_TRUE(t.RangeScan({}, [&](const IndexEntry&) {
                 ++n;
                 return Status::OK();
               }).ok());
  EXPECT_GT(n, 0u);
  // The spatial index saw the same writes: after reopen it holds exactly
  // the B-tree's live keys.
  std::vector<int64_t> btree_keys, rtree_keys;
  ASSERT_TRUE(t.RangeScan({}, [&](const IndexEntry& e) {
                 btree_keys.push_back(e.key[0].AsInt());
                 return Status::OK();
               }).ok());
  LsmRTree rt(cache_.get(), dir_, "r", AsyncOpts(&sched, /*budget=*/4096));
  ASSERT_TRUE(rt.Open().ok());
  ASSERT_TRUE(rt.Search(Mbr{-1, -1, 1e9, 1e9}, [&](const RTreeEntry& e) {
                 rtree_keys.push_back(e.key[0].AsInt());
                 return Status::OK();
               }).ok());
  EXPECT_EQ(rtree_keys, btree_keys);
}

}  // namespace
}  // namespace storage
}  // namespace asterix
