#include "storage/lsm_rtree.h"

#include <algorithm>
#include <cstring>

namespace asterix {
namespace storage {

namespace {

// An entry's payload is its MBR: four doubles, xlo ylo xhi yhi.
std::vector<uint8_t> EncodeMbr(const Mbr& mbr) {
  std::vector<uint8_t> out(sizeof(Mbr));
  std::memcpy(out.data(), &mbr, sizeof(Mbr));
  return out;
}

Mbr DecodeMbr(const std::vector<uint8_t>& payload) {
  Mbr mbr;
  if (payload.size() == sizeof(Mbr)) {
    std::memcpy(&mbr, payload.data(), sizeof(Mbr));
  }
  return mbr;
}

/// An STR-packed R-tree disk component seen as a key-ordered component:
/// merges scan it sorted by pk, spatial searches use the R-tree itself.
class RTreeComponent : public DiskComponentReader {
 public:
  explicit RTreeComponent(std::shared_ptr<RTreeReader> rtree)
      : rtree_(std::move(rtree)) {}

  const RTreeReader& rtree() const { return *rtree_; }

  Status PointLookup(const CompositeKey&, bool*, IndexEntry*) override {
    return Status::NotImplemented("r-tree components have no key lookup");
  }

  Status RangeScan(const ScanBounds& bounds,
                   const EntryCallback& cb) const override {
    std::vector<IndexEntry> entries;
    ASTERIX_RETURN_NOT_OK(rtree_->ScanAll([&](const RTreeEntry& e) {
      entries.push_back(IndexEntry{e.key, e.antimatter, EncodeMbr(e.mbr)});
      return Status::OK();
    }));
    std::sort(entries.begin(), entries.end(),
              [](const IndexEntry& a, const IndexEntry& b) {
                return CompareKeys(a.key, b.key) < 0;
              });
    for (const IndexEntry& e : entries) {
      int where = BoundsPosition(e.key, bounds);
      if (where > 0) break;
      if (where == 0) ASTERIX_RETURN_NOT_OK(cb(e));
    }
    return Status::OK();
  }

  Status ProjectedScan(const ScanBounds&, const column::Projection&, bool,
                       const column::ProjectedEntryCallback&,
                       column::ProjectedScanStats*) const override {
    return Status::NotImplemented("r-tree components hold no records");
  }

  Status MultiGet(const std::vector<CompositeKey>&, const column::Projection&,
                  const MultiGetCallback&) const override {
    return Status::NotImplemented("r-tree components hold no records");
  }

  bool MayContain(const CompositeKey&) const override { return true; }

 private:
  std::shared_ptr<RTreeReader> rtree_;
};

class RTreeLayout : public ComponentLayout {
 public:
  explicit RTreeLayout(BufferCache* cache) : cache_(cache) {}

  const char* suffix() const override { return "rtr"; }

  Status Build(const std::string& path,
               const std::function<Status(const EntryCallback&)>& feed,
               uint64_t* num_entries) const override {
    RTreeBuilder builder(path);
    ASTERIX_RETURN_NOT_OK(feed([&](const IndexEntry& e) {
      builder.Add(RTreeEntry{DecodeMbr(e.payload), e.key, e.antimatter});
      return Status::OK();
    }));
    *num_entries = builder.num_entries();
    return builder.Finish();
  }

  Status Open(const std::string& path,
              std::shared_ptr<DiskComponentReader>* out) const override {
    auto r = RTreeReader::Open(cache_, path);
    if (!r.ok()) return r.status();
    *out = std::make_shared<RTreeComponent>(r.take());
    return Status::OK();
  }

 private:
  BufferCache* cache_;
};

}  // namespace

LsmRTree::LsmRTree(BufferCache* cache, const std::string& dir,
                   const std::string& name, LsmOptions options)
    : tree_(dir, name, std::move(options),
            std::make_unique<RTreeLayout>(cache)) {}

Status LsmRTree::Upsert(const CompositeKey& pk, const Mbr& mbr, uint64_t lsn) {
  return tree_.Upsert(pk, EncodeMbr(mbr), lsn);
}

Status LsmRTree::Delete(const CompositeKey& pk, const Mbr& old_mbr,
                        uint64_t lsn) {
  return tree_.Delete(pk, lsn, EncodeMbr(old_mbr));
}

Status LsmRTree::Search(const Mbr& query, const RTreeCallback& cb) const {
  // Components arrive newest first, so the first version found of a pk is
  // its newest. A memory component holds every version it has, so a disk
  // hit whose pk any visited memtable holds is stale; among disk hits the
  // newest component's wins (a tombstone carries the deleted MBR, so the
  // searches that find an entry find its tombstone too).
  std::vector<const LsmBTree::MemTable*> tables;
  std::vector<RTreeEntry> hits;
  auto in_memory = [&](const CompositeKey& pk) {
    for (const auto* t : tables) {
      if (t->count(pk) != 0) return true;
    }
    return false;
  };
  ASTERIX_RETURN_NOT_OK(tree_.VisitNewestFirst(
      [&](const LsmBTree::MemTable& table) {
        for (const auto& [pk, e] : table) {
          if (e.antimatter || in_memory(pk)) continue;
          Mbr mbr = DecodeMbr(e.payload);
          if (mbr.Overlaps(query)) hits.push_back(RTreeEntry{mbr, pk, false});
        }
        tables.push_back(&table);
        return Status::OK();
      },
      [&](const DiskComponentReader& c) {
        return static_cast<const RTreeComponent&>(c).rtree().Search(
            query, [&](const RTreeEntry& e) {
              if (!in_memory(e.key)) hits.push_back(e);
              return Status::OK();
            });
      }));
  std::stable_sort(hits.begin(), hits.end(),
                   [](const RTreeEntry& a, const RTreeEntry& b) {
                     return CompareKeys(a.key, b.key) < 0;
                   });
  for (size_t i = 0; i < hits.size(); ++i) {
    if (i > 0 && CompareKeys(hits[i].key, hits[i - 1].key) == 0) continue;
    if (!hits[i].antimatter) ASTERIX_RETURN_NOT_OK(cb(hits[i]));
  }
  return Status::OK();
}

}  // namespace storage
}  // namespace asterix
