#include "storage/btree.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <map>
#include <random>

#include "adm/serde.h"
#include "common/env.h"
#include "storage/lsm.h"

namespace asterix {
namespace storage {
namespace {

using adm::Value;

class BTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = env::NewScratchDir("btree-test");
    cache_ = std::make_unique<BufferCache>(256);
  }
  void TearDown() override { env::RemoveAll(dir_); }

  std::string Path(const std::string& name) { return dir_ + "/" + name; }

  std::string dir_;
  std::unique_ptr<BufferCache> cache_;
};

IndexEntry MakeEntry(int64_t key, const std::string& payload,
                     bool antimatter = false) {
  IndexEntry e;
  e.key = {Value::Int64(key)};
  e.antimatter = antimatter;
  e.payload.assign(payload.begin(), payload.end());
  return e;
}

// Every read of a file goes through the descriptor OpenFile opened: reads
// keep working after the path is unlinked, and CloseFile drops only that
// file's pages.
TEST(BufferCacheTest, ReadsGoThroughTheDescriptorOpenedOnce) {
  std::string dir = env::NewScratchDir("bufcache");
  std::vector<uint8_t> bytes(kPageSize * 2 + 100);
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<uint8_t>(i * 7 + 3);
  }
  std::string path_a = dir + "/a", path_b = dir + "/b";
  ASSERT_TRUE(env::WriteFileAtomic(path_a, bytes.data(), bytes.size()).ok());
  ASSERT_TRUE(env::WriteFileAtomic(path_b, bytes.data(), kPageSize).ok());
  BufferCache cache(16);
  auto a = cache.OpenFile(path_a);
  auto b = cache.OpenFile(path_b);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(::unlink(path_a.c_str()), 0);

  std::vector<uint8_t> range;
  auto st = cache.ReadRange(a.value(), kPageSize * 2, 100, &range);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(range, std::vector<uint8_t>(bytes.end() - 100, bytes.end()));
  auto page = cache.GetPage(a.value(), 1);  // a miss, read from disk
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  EXPECT_EQ(*page.value(),
            std::vector<uint8_t>(bytes.begin() + kPageSize,
                                 bytes.begin() + 2 * kPageSize));
  auto tail = cache.GetPage(a.value(), 2);  // the short last page
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail.value()->size(), 100u);
  EXPECT_FALSE(cache.GetPage(a.value(), 3).ok());  // past EOF
  EXPECT_EQ(cache.FileSizeBytes(a.value()), bytes.size());

  ASSERT_TRUE(cache.GetPage(b.value(), 0).ok());
  uint64_t hits = cache.hits();
  cache.CloseFile(a.value());
  EXPECT_FALSE(cache.ReadRange(a.value(), 0, 1, &range).ok());
  ASSERT_TRUE(cache.GetPage(b.value(), 0).ok());  // b's page is still cached
  EXPECT_EQ(cache.hits(), hits + 1);
  env::RemoveAll(dir);
}

TEST_F(BTreeTest, BuildAndPointLookup) {
  BTreeBuilder builder(Path("t1.btr"));
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(builder.Add(MakeEntry(i * 2, "payload-" + std::to_string(i))).ok());
  }
  ASSERT_TRUE(builder.Finish().ok());

  auto reader_r = BTreeReader::Open(cache_.get(), Path("t1.btr"));
  ASSERT_TRUE(reader_r.ok()) << reader_r.status().ToString();
  auto reader = reader_r.take();
  EXPECT_EQ(reader->num_entries(), 1000u);

  bool found;
  IndexEntry e;
  ASSERT_TRUE(reader->PointLookup({Value::Int64(500)}, &found, &e).ok());
  EXPECT_TRUE(found);
  EXPECT_EQ(std::string(e.payload.begin(), e.payload.end()), "payload-250");

  ASSERT_TRUE(reader->PointLookup({Value::Int64(501)}, &found, &e).ok());
  EXPECT_FALSE(found);
}

TEST_F(BTreeTest, RejectsUnsortedInput) {
  BTreeBuilder builder(Path("t2.btr"));
  ASSERT_TRUE(builder.Add(MakeEntry(10, "a")).ok());
  EXPECT_FALSE(builder.Add(MakeEntry(5, "b")).ok());
  EXPECT_FALSE(builder.Add(MakeEntry(10, "dup")).ok());
}

TEST_F(BTreeTest, RangeScanInclusiveExclusive) {
  BTreeBuilder builder(Path("t3.btr"));
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(builder.Add(MakeEntry(i, "p")).ok());
  }
  ASSERT_TRUE(builder.Finish().ok());
  auto reader = BTreeReader::Open(cache_.get(), Path("t3.btr")).take();

  ScanBounds b;
  b.lo = CompositeKey{Value::Int64(10)};
  b.hi = CompositeKey{Value::Int64(20)};
  std::vector<int64_t> keys;
  ASSERT_TRUE(reader->RangeScan(b, [&](const IndexEntry& e) {
    keys.push_back(e.key[0].AsInt());
    return Status::OK();
  }).ok());
  ASSERT_EQ(keys.size(), 11u);
  EXPECT_EQ(keys.front(), 10);
  EXPECT_EQ(keys.back(), 20);

  b.lo_inclusive = false;
  b.hi_inclusive = false;
  keys.clear();
  ASSERT_TRUE(reader->RangeScan(b, [&](const IndexEntry& e) {
    keys.push_back(e.key[0].AsInt());
    return Status::OK();
  }).ok());
  ASSERT_EQ(keys.size(), 9u);
  EXPECT_EQ(keys.front(), 11);
  EXPECT_EQ(keys.back(), 19);
}

TEST_F(BTreeTest, FullScanIsOrdered) {
  BTreeBuilder builder(Path("t4.btr"));
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(builder.Add(MakeEntry(i, std::string(50, 'x'))).ok());
  }
  ASSERT_TRUE(builder.Finish().ok());
  auto reader = BTreeReader::Open(cache_.get(), Path("t4.btr")).take();
  int64_t prev = -1;
  size_t count = 0;
  ASSERT_TRUE(reader->RangeScan({}, [&](const IndexEntry& e) {
    EXPECT_GT(e.key[0].AsInt(), prev);
    prev = e.key[0].AsInt();
    ++count;
    return Status::OK();
  }).ok());
  EXPECT_EQ(count, 5000u);
}

TEST_F(BTreeTest, OverflowPayloads) {
  BTreeBuilder builder(Path("t5.btr"));
  std::string big(20000, 'z');
  ASSERT_TRUE(builder.Add(MakeEntry(1, "small")).ok());
  ASSERT_TRUE(builder.Add(MakeEntry(2, big)).ok());
  ASSERT_TRUE(builder.Add(MakeEntry(3, "small2")).ok());
  ASSERT_TRUE(builder.Finish().ok());
  auto reader = BTreeReader::Open(cache_.get(), Path("t5.btr")).take();
  bool found;
  IndexEntry e;
  ASSERT_TRUE(reader->PointLookup({Value::Int64(2)}, &found, &e).ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(e.payload.size(), big.size());
  EXPECT_EQ(std::string(e.payload.begin(), e.payload.end()), big);
}

TEST_F(BTreeTest, CompositeKeyPrefixScan) {
  BTreeBuilder builder(Path("t6.btr"));
  // (token, pk) composite keys, as the inverted index produces.
  std::vector<std::pair<std::string, int>> entries = {
      {"apple", 1}, {"apple", 5}, {"apple", 9},
      {"banana", 2}, {"cherry", 1}, {"cherry", 7}};
  std::sort(entries.begin(), entries.end());
  for (const auto& [tok, pk] : entries) {
    IndexEntry e;
    e.key = {Value::String(tok), Value::Int64(pk)};
    ASSERT_TRUE(builder.Add(e).ok());
  }
  ASSERT_TRUE(builder.Finish().ok());
  auto reader = BTreeReader::Open(cache_.get(), Path("t6.btr")).take();

  ScanBounds b;
  b.lo = CompositeKey{Value::String("apple")};
  b.hi = b.lo;
  std::vector<int64_t> pks;
  ASSERT_TRUE(reader->RangeScan(b, [&](const IndexEntry& e) {
    pks.push_back(e.key[1].AsInt());
    return Status::OK();
  }).ok());
  EXPECT_EQ(pks, (std::vector<int64_t>{1, 5, 9}));
}

TEST_F(BTreeTest, EmptyTree) {
  BTreeBuilder builder(Path("t7.btr"));
  ASSERT_TRUE(builder.Finish().ok());
  auto reader_r = BTreeReader::Open(cache_.get(), Path("t7.btr"));
  ASSERT_TRUE(reader_r.ok());
  auto reader = reader_r.take();
  EXPECT_EQ(reader->num_entries(), 0u);
  bool found = true;
  IndexEntry e;
  ASSERT_TRUE(reader->PointLookup({Value::Int64(1)}, &found, &e).ok());
  EXPECT_FALSE(found);
  size_t count = 0;
  ASSERT_TRUE(reader->RangeScan({}, [&](const IndexEntry&) {
    ++count;
    return Status::OK();
  }).ok());
  EXPECT_EQ(count, 0u);
}

TEST_F(BTreeTest, StringKeysRandomOrderLookup) {
  std::vector<std::string> keys;
  for (int i = 0; i < 2000; ++i) {
    keys.push_back("key-" + std::to_string(i * 7919 % 100000));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  BTreeBuilder builder(Path("t8.btr"));
  for (const auto& k : keys) {
    IndexEntry e;
    e.key = {Value::String(k)};
    e.payload = {1, 2, 3};
    ASSERT_TRUE(builder.Add(e).ok());
  }
  ASSERT_TRUE(builder.Finish().ok());
  auto reader = BTreeReader::Open(cache_.get(), Path("t8.btr")).take();
  std::mt19937 rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    const std::string& k = keys[rng() % keys.size()];
    bool found;
    IndexEntry e;
    ASSERT_TRUE(reader->PointLookup({Value::String(k)}, &found, &e).ok());
    EXPECT_TRUE(found) << k;
  }
  bool found;
  IndexEntry e;
  ASSERT_TRUE(reader->PointLookup({Value::String("nope")}, &found, &e).ok());
  EXPECT_FALSE(found);
}

TEST_F(BTreeTest, CorruptFooterDetected) {
  BTreeBuilder builder(Path("t9.btr"));
  ASSERT_TRUE(builder.Add(MakeEntry(1, "x")).ok());
  ASSERT_TRUE(builder.Finish().ok());
  // Flip a byte in the footer region.
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(env::ReadFile(Path("t9.btr"), &bytes).ok());
  bytes[bytes.size() - 12] ^= 0xff;
  ASSERT_TRUE(env::WriteFileAtomic(Path("t9.btr"), bytes.data(), bytes.size()).ok());
  auto reader_r = BTreeReader::Open(cache_.get(), Path("t9.btr"));
  EXPECT_FALSE(reader_r.ok());
}

TEST_F(BTreeTest, BoundCompareSemantics) {
  CompositeKey ab = {Value::String("a"), Value::String("b")};
  CompositeKey a = {Value::String("a")};
  CompositeKey b = {Value::String("b")};
  EXPECT_EQ(BoundCompare(ab, a), 0);   // prefix match
  EXPECT_EQ(BoundCompare(a, ab), -1);  // key shorter than bound
  EXPECT_LT(BoundCompare(ab, b), 0);
  EXPECT_GT(BoundCompare(b, a), 0);
}

// ---------------------------------------------------------------------------
// Cursor-based reads (RangeScan, PointLookup, sorted MultiGet) against a
// reference map
// ---------------------------------------------------------------------------

struct RefEntry {
  bool antimatter = false;
  std::string payload;
};

std::string RandomText(std::mt19937_64* rng, size_t len) {
  static const char kChars[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  std::string s(len, ' ');
  for (char& c : s) c = kChars[(*rng)() % (sizeof(kChars) - 1)];
  return s;
}

TEST_F(BTreeTest, CursorReadsMatchReference) {
  // Even keys 0..3998 are stored: some as antimatter, some with payloads
  // past the overflow threshold (a quarter page). Small payloads keep the
  // leaves short, so the probes below cross many leaf boundaries; probing
  // every stored key covers every leaf's first key, which is also its
  // separator in the parent.
  std::mt19937_64 rng(20);
  std::map<int64_t, RefEntry> ref;
  BTreeBuilder builder(Path("cursor.btr"));
  for (int64_t k = 0; k < 4000; k += 2) {
    RefEntry e;
    e.antimatter = rng() % 9 == 0;
    if (!e.antimatter) {
      size_t len = rng() % 11 == 0 ? 1100 + rng() % 3000 : rng() % 160;
      e.payload = RandomText(&rng, len);
    }
    ASSERT_TRUE(builder.Add(MakeEntry(k, e.payload, e.antimatter)).ok());
    ref[k] = e;
  }
  ASSERT_TRUE(builder.Finish().ok());
  auto reader = BTreeReader::Open(cache_.get(), Path("cursor.btr")).take();

  // Absent keys before, between and after the stored ones.
  std::vector<int64_t> probes;
  for (int64_t k = -5; k < 4010; ++k) probes.push_back(k);

  for (int64_t k : probes) {
    bool found = false;
    IndexEntry e;
    ASSERT_TRUE(reader->PointLookup({Value::Int64(k)}, &found, &e).ok());
    auto it = ref.find(k);
    ASSERT_EQ(found, it != ref.end()) << k;
    if (!found) continue;
    EXPECT_EQ(e.key[0].AsInt(), k);
    EXPECT_EQ(e.antimatter, it->second.antimatter) << k;
    EXPECT_EQ(std::string(e.payload.begin(), e.payload.end()),
              it->second.payload)
        << k;
  }

  auto check_batch = [&](std::vector<int64_t> batch) {
    std::sort(batch.begin(), batch.end());
    std::vector<CompositeKey> keys;
    for (int64_t k : batch) keys.push_back({Value::Int64(k)});
    std::vector<int> hits(keys.size(), 0);
    size_t last = 0;
    bool any = false;
    Status st = reader->MultiGet(keys, [&](size_t i, const EntryView& v) {
      EXPECT_TRUE(!any || i > last) << "hits must arrive in ascending i";
      any = true;
      last = i;
      ++hits[i];
      auto it = ref.find(batch[i]);
      EXPECT_TRUE(it != ref.end()) << batch[i];
      if (it == ref.end()) return Status::OK();
      EXPECT_EQ(CompareKeys(v.key, keys[i]), 0);
      EXPECT_EQ(v.antimatter, it->second.antimatter) << batch[i];
      EXPECT_EQ(std::string(v.payload, v.payload + v.payload_size),
                it->second.payload)
          << batch[i];
      return Status::OK();
    });
    ASSERT_TRUE(st.ok()) << st.ToString();
    for (size_t i = 0; i < batch.size(); ++i) {
      // Every duplicate of a stored key gets the hit.
      EXPECT_EQ(hits[i], ref.count(batch[i]) ? 1 : 0) << batch[i];
    }
  };
  check_batch(probes);
  for (int round = 0; round < 60; ++round) {
    std::vector<int64_t> batch;
    size_t n = 1 + rng() % 300;
    for (size_t j = 0; j < n; ++j) {
      int64_t k = -5 + static_cast<int64_t>(rng() % 4015);
      batch.push_back(k);
      if (rng() % 4 == 0) batch.push_back(k);
    }
    check_batch(batch);
  }

  for (int round = 0; round < 60; ++round) {
    ScanBounds b;
    int64_t lo = -5 + static_cast<int64_t>(rng() % 4015);
    int64_t hi = lo + static_cast<int64_t>(rng() % 600);
    if (rng() % 5 != 0) {
      b.lo = CompositeKey{Value::Int64(lo)};
      b.lo_inclusive = rng() % 2 == 0;
    }
    if (rng() % 5 != 0) {
      b.hi = CompositeKey{Value::Int64(hi)};
      b.hi_inclusive = rng() % 2 == 0;
    }
    std::vector<std::pair<int64_t, RefEntry>> want;
    for (const auto& [k, e] : ref) {
      if (BoundsPosition({Value::Int64(k)}, b) == 0) want.emplace_back(k, e);
    }
    std::vector<std::pair<int64_t, RefEntry>> got;
    ASSERT_TRUE(reader->RangeScan(b, [&](const IndexEntry& e) {
      got.emplace_back(e.key[0].AsInt(),
                       RefEntry{e.antimatter, std::string(e.payload.begin(),
                                                          e.payload.end())});
      return Status::OK();
    }).ok());
    ASSERT_EQ(got.size(), want.size()) << "round " << round;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].first, want[i].first);
      EXPECT_EQ(got[i].second.antimatter, want[i].second.antimatter);
      EXPECT_EQ(got[i].second.payload, want[i].second.payload);
    }
  }
}

TEST_F(BTreeTest, SortedMultiGetDescendsOncePerLeaf) {
  BTreeBuilder builder(Path("descend.btr"));
  std::vector<CompositeKey> keys;
  for (int64_t k = 0; k < 20000; ++k) {
    ASSERT_TRUE(builder.Add(MakeEntry(k, std::string(60, 'p'))).ok());
    if (k % 3 == 0) keys.push_back({Value::Int64(k)});
  }
  ASSERT_TRUE(builder.Finish().ok());
  auto reader = BTreeReader::Open(cache_.get(), Path("descend.btr")).take();
  auto page_gets = [&] { return cache_->hits() + cache_->misses(); };

  uint64_t before = page_gets();
  size_t hits = 0;
  ASSERT_TRUE(reader->MultiGet(keys, [&](size_t, const EntryView&) {
    ++hits;
    return Status::OK();
  }).ok());
  uint64_t batch_gets = page_gets() - before;
  EXPECT_EQ(hits, keys.size());

  before = page_gets();
  for (const CompositeKey& k : keys) {
    bool found = false;
    IndexEntry e;
    ASSERT_TRUE(reader->PointLookup(k, &found, &e).ok());
    ASSERT_TRUE(found);
  }
  uint64_t single_gets = page_gets() - before;

  // The tree's depth: the pages a lookup of its first key reads. A scan of
  // everything reads the interior pages above the first leaf once, then
  // every leaf.
  before = page_gets();
  bool found = false;
  IndexEntry e;
  ASSERT_TRUE(reader->PointLookup(keys[0], &found, &e).ok());
  uint64_t depth = page_gets() - before;
  before = page_gets();
  ASSERT_TRUE(
      reader->RangeScan({}, [](const IndexEntry&) { return Status::OK(); })
          .ok());
  uint64_t leaves = page_gets() - before - (depth - 1);
  ASSERT_GE(depth, 2u);
  ASSERT_GT(leaves, 100u);

  // One descent per leaf, plus a step to the right sibling when a key
  // equals the first key of the leaf after the one the descent chose;
  // one descent per key one at a time.
  EXPECT_LE(batch_gets, leaves * (depth + 1));
  EXPECT_GE(single_gets, depth * keys.size());
  EXPECT_LT(batch_gets * 10, single_gets)
      << "batch=" << batch_gets << " single=" << single_gets;
}

TEST_F(BTreeTest, MultiGetRejectsUnsortedKeys) {
  BTreeBuilder builder(Path("unsorted.btr"));
  for (int64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(builder.Add(MakeEntry(k, "v")).ok());
  }
  ASSERT_TRUE(builder.Finish().ok());
  auto reader = BTreeReader::Open(cache_.get(), Path("unsorted.btr")).take();
  Status st = reader->MultiGet(
      {{Value::Int64(50)}, {Value::Int64(10)}},
      [](size_t, const EntryView&) { return Status::OK(); });
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

// Plain and LZ-compressed row trees through the LSM layer: MultiGet,
// ProjectedScan and PointLookup decode straight from leaf pages and must
// agree with a reference, across a disk component of records (some with
// overflow payloads), a newer one of overwrites and antimatter, and
// unflushed memtable entries.
class RowTreeReadTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    dir_ = env::NewScratchDir("row-tree-read");
    cache_ = std::make_unique<BufferCache>(256);
  }
  void TearDown() override { env::RemoveAll(dir_); }

  std::string dir_;
  std::unique_ptr<BufferCache> cache_;
};

TEST_P(RowTreeReadTest, ProjectedReadsMatchReference) {
  using adm::Datatype;
  using adm::TypeTag;
  adm::DatatypePtr type = Datatype::MakeRecord(
      "RowT",
      {{"id", Datatype::Primitive(TypeTag::kInt64), false},
       {"name", Datatype::Primitive(TypeTag::kString), false},
       {"blob", Datatype::Primitive(TypeTag::kString), true}},
      /*open=*/true);
  LsmOptions options;
  options.mem_budget_bytes = 64u << 20;
  options.merge_policy = MergePolicy::None();
  options.compress = GetParam();
  options.record_type = type;
  LsmBTree tree(cache_.get(), dir_, "rows", options);
  ASSERT_TRUE(tree.Open().ok());

  std::mt19937_64 rng(GetParam() ? 5 : 6);
  std::map<int64_t, Value> ref;
  uint64_t lsn = 0;
  auto put = [&](int64_t k) {
    adm::RecordBuilder b;
    b.Add("id", Value::Int64(k)).Add("name", Value::String("n" + std::to_string(k)));
    // Random text does not compress, so long blobs overflow either way.
    if (rng() % 3 != 0) {
      size_t len = rng() % 8 == 0 ? 1500 + rng() % 2000 : rng() % 100;
      b.Add("blob", Value::String(RandomText(&rng, len)));
    }
    if (rng() % 2 == 0) b.Add("extra", Value::Int64(static_cast<int64_t>(rng() % 1000)));
    Value rec = b.Build();
    BytesWriter w;
    ASSERT_TRUE(adm::SerializeTyped(rec, type, &w).ok());
    ASSERT_TRUE(tree.Upsert({Value::Int64(k)}, w.data(), ++lsn).ok());
    ref[k] = rec;
  };
  auto del = [&](int64_t k) {
    ASSERT_TRUE(tree.Delete({Value::Int64(k)}, ++lsn).ok());
    ref.erase(k);
  };
  for (int64_t k = 0; k < 1200; k += 2) put(k);
  ASSERT_TRUE(tree.Flush().ok());
  for (int64_t k = 0; k < 1200; k += 14) del(k);
  for (int64_t k = 4; k < 1200; k += 22) put(k);
  ASSERT_TRUE(tree.Flush().ok());
  for (int64_t k = 6; k < 1200; k += 50) put(k);
  for (int64_t k = 8; k < 1200; k += 70) del(k);
  ASSERT_EQ(tree.num_disk_components(), 2u);

  std::vector<column::Projection> projections = {
      column::Projection::All(), column::Projection::Of({}),
      column::Projection::Of({"name"}),
      column::Projection::Of({"extra", "blob", "missing"})};
  for (const column::Projection& proj : projections) {
    SCOPED_TRACE(proj.all_fields ? "all" : proj.ToString());
    // MultiGet of a sorted batch with duplicates and absent keys.
    std::vector<int64_t> batch;
    for (int64_t k = -3; k < 1205; ++k) {
      batch.push_back(k);
      if (k % 5 == 0) batch.push_back(k);
    }
    std::vector<CompositeKey> keys;
    for (int64_t k : batch) keys.push_back({Value::Int64(k)});
    std::vector<int> hits(keys.size(), 0);
    ASSERT_TRUE(tree.MultiGet(keys, proj, [&](size_t i, Value rec) {
      ++hits[i];
      auto it = ref.find(batch[i]);
      EXPECT_TRUE(it != ref.end()) << batch[i];
      if (it != ref.end()) {
        EXPECT_EQ(rec.ToString(),
                  adm::KeepFields(it->second, proj.all_fields, proj.fields)
                      .ToString());
      }
      return Status::OK();
    }).ok());
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(hits[i], ref.count(batch[i]) ? 1 : 0) << batch[i];
    }

    std::vector<std::pair<int64_t, std::string>> scanned;
    column::ProjectedScanStats stats;
    ASSERT_TRUE(tree.ProjectedScan(
        ScanBounds{}, proj,
        [&](const CompositeKey& key, bool antimatter, const Value& rec) {
          EXPECT_FALSE(antimatter);
          scanned.emplace_back(key[0].AsInt(), rec.ToString());
          return Status::OK();
        },
        &stats).ok());
    ASSERT_EQ(scanned.size(), ref.size());
    size_t n = 0;
    for (const auto& [k, rec] : ref) {
      EXPECT_EQ(scanned[n].first, k);
      EXPECT_EQ(scanned[n].second,
                adm::KeepFields(rec, proj.all_fields, proj.fields).ToString());
      ++n;
    }
    EXPECT_GT(stats.bytes_read, 0u);
  }

  for (int64_t k = -3; k < 1205; ++k) {
    bool found = false;
    std::vector<uint8_t> payload;
    ASSERT_TRUE(tree.PointLookup({Value::Int64(k)}, &found, &payload).ok());
    auto it = ref.find(k);
    ASSERT_EQ(found, it != ref.end()) << k;
    if (!found) continue;
    BytesReader r(payload);
    Value rec;
    ASSERT_TRUE(adm::DeserializeTyped(&r, type, &rec).ok());
    EXPECT_EQ(rec.ToString(), it->second.ToString());
  }
}

INSTANTIATE_TEST_SUITE_P(PlainAndCompressed, RowTreeReadTest,
                         ::testing::Bool());

}  // namespace
}  // namespace storage
}  // namespace asterix
