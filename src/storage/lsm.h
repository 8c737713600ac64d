#ifndef ASTERIX_STORAGE_LSM_H_
#define ASTERIX_STORAGE_LSM_H_

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "adm/type.h"
#include "storage/btree.h"
#include "storage/buffer_cache.h"
#include "storage/column/batch.h"
#include "storage/compaction.h"
#include "storage/component.h"
#include "storage/key.h"
#include "storage/scan_filter.h"

namespace asterix {
namespace storage {

/// Physical layout of an index's disk components. Row components are paged
/// B+-trees storing whole record images; column components store the same
/// rows column-major with per-page min/max stats, so projected scans read
/// only the touched fields (see src/storage/column/).
enum class StorageFormat { kRow, kColumn };

/// When and what to merge, per the paper's "subject to some merge policy".
struct MergePolicy {
  enum class Kind {
    kNone,      // never merge (read cost grows with component count)
    kConstant,  // merge ALL disk components whenever more than `max_components`
    kPrefix,    // merge the contiguous run of small components when the run
                // grows past `max_components` and stays under `max_merge_bytes`
    kTiered,    // size-ratio tiering: merge the newest contiguous run of
                // similar-sized components once it grows past
                // `max_components` runs — bounded merge cost per flush,
                // write-amp O(log n) instead of constant-policy O(n)
  };
  Kind kind = Kind::kConstant;
  size_t max_components = 5;
  uint64_t max_merge_bytes = 256ull << 20;
  /// Tiered only: a component belongs to the newest run while it is at most
  /// `size_ratio_x100 / 100` times the total of the newer run members.
  uint32_t size_ratio_x100 = 120;

  static MergePolicy None() { return {Kind::kNone, 0, 0, 0}; }
  static MergePolicy Constant(size_t k) { return {Kind::kConstant, k, 0, 0}; }
  static MergePolicy Prefix(size_t k, uint64_t bytes) {
    return {Kind::kPrefix, k, bytes, 0};
  }
  static MergePolicy Tiered(size_t k, uint32_t ratio_x100) {
    return {Kind::kTiered, k, 0, ratio_x100};
  }
};

/// Maps a DDL with-clause policy name ("none" | "constant" | "prefix" |
/// "tiered") onto a MergePolicy with that kind's default knobs. Returns
/// false for unknown names.
bool MergePolicyFromName(const std::string& name, MergePolicy* out);

/// Inverse of MergePolicyFromName (metadata persistence).
const char* MergePolicyName(MergePolicy::Kind kind);

struct LsmOptions {
  /// Flush the in-memory component once it holds this many bytes of
  /// payload+key data (the paper's memory-occupancy threshold).
  size_t mem_budget_bytes = 8u << 20;
  MergePolicy merge_policy = MergePolicy::Constant(5);
  /// Disk-component layout, fixed for the index's lifetime (components are
  /// homogeneous: changing the format of an existing dataset is not
  /// supported). Column format requires `record_type`.
  StorageFormat format = StorageFormat::kRow;
  /// LZ-compress disk components: row formats frame each record payload,
  /// column formats compress each column page. Like `format`, fixed at
  /// dataset-creation time.
  bool compress = false;
  /// The dataset's declared record type; drives schema inference and
  /// schema-typed column encoding (required when format == kColumn).
  adm::DatatypePtr record_type;
  /// Background maintenance pool. When set, a budget trip rotates the
  /// memtable to an immutable component and schedules an async flush
  /// instead of flushing inline; merges run as background jobs too. When
  /// null (the default), flush and merge stay synchronous on the writer —
  /// the original behavior, still used by tests and standalone trees. In
  /// async mode a writer blocks once the memtables hold 3x
  /// mem_budget_bytes: the rotated component holds ~1x on its own and the
  /// extra 1x is the soft-throttle band (a 2x ceiling would make writers
  /// skip the throttle and block).
  CompactionScheduler* scheduler = nullptr;
};

/// A disk component's identity and stats. `max_lsn` is the largest WAL LSN
/// whose effect is contained in the component; recovery replays only ops
/// beyond the index's flushed LSN.
///
/// `seq` is the component's *sort* position: components resolve
/// newest-wins in increasing seq order. For flushed components it equals
/// the file-name seq; a merge output keeps the sort seq of its newest
/// input (so it sorts exactly where the merged run sat) while its file is
/// named by a fresh allocation — which is what lets a merge commit while a
/// newer flush is concurrently installing a higher seq.
struct ComponentInfo {
  uint64_t seq = 0;
  std::string path;
  uint64_t num_entries = 0;
  uint64_t bytes = 0;
  uint64_t max_lsn = 0;
};

/// The LSM-ification framework's shared machinery: component naming,
/// sequence allocation, validity-bit shadowing (a component only becomes
/// visible once its `.valid` marker is atomically installed), crash-orphan
/// cleanup, and component-file deletion after merges. Index structures
/// (B+-tree, R-tree, inverted) plug their own build/read logic on top —
/// this is the paper's "framework that enables LSM-ification of any kind
/// of index structure".
class LsmLifecycle {
 public:
  /// `dir` must exist; `name` scopes the index's files inside it, and
  /// `suffix` tags the structure kind (btr/rtr).
  LsmLifecycle(std::string dir, std::string name, std::string suffix);

  /// Scans the directory: returns valid components sorted oldest-first
  /// (by sort seq), deletes any component files lacking a validity marker
  /// (crash debris), and completes interrupted merge cleanup — when a valid
  /// merge output declares a `replaces` range, any other valid component
  /// whose sort seq falls inside it is a leftover input and is removed.
  Result<std::vector<ComponentInfo>> Recover();

  uint64_t AllocateSeq();
  std::string ComponentPath(uint64_t seq) const;

  /// Installs the validity bit: after this returns the component is durable
  /// and will be seen by Recover(). `sort_seq` (0 = same as `seq`) is the
  /// resolution-order position recorded in the marker; merge outputs pass
  /// their newest input's seq plus the `replaces` range [lo, hi] of input
  /// sort seqs the output supersedes.
  Status MarkValid(uint64_t seq, uint64_t num_entries, uint64_t max_lsn,
                   uint64_t sort_seq = 0, uint64_t replaces_lo = 0,
                   uint64_t replaces_hi = 0);

  Status RemoveComponent(const ComponentInfo& info);

  /// The index name this lifecycle scopes (journal event labels).
  const std::string& name() const { return name_; }

 private:
  std::string MarkerPath(uint64_t seq) const;

  std::string dir_;
  std::string name_;
  std::string suffix_;
  uint64_t next_seq_ = 1;
};

/// The LSM core: an in-memory component (std::map) + immutable disk
/// components, flushed and merged through one select/build/install path.
/// Deletes are antimatter entries that cancel older matter. The disk layout
/// comes from a ComponentLayout: row or column B+-trees picked from the
/// options back primary indexes (payload = record bytes), secondary B-tree
/// indexes (composite key, empty payload) and — keyed by (token, pk) — the
/// inverted indexes; LsmRTree plugs STR-packed R-trees into the same core.
class LsmBTree : public Compactable {
 public:
  struct MemEntry {
    bool antimatter = false;
    std::vector<uint8_t> payload;
  };
  struct KeyLess {
    bool operator()(const CompositeKey& a, const CompositeKey& b) const {
      return CompareKeys(a, b) < 0;
    }
  };
  using MemTable = std::map<CompositeKey, MemEntry, KeyLess>;

  LsmBTree(BufferCache* cache, const std::string& dir, const std::string& name,
           LsmOptions options);
  /// A tree whose disk components use `layout` instead of the B+-tree
  /// layouts `options` would pick.
  LsmBTree(const std::string& dir, const std::string& name, LsmOptions options,
           std::unique_ptr<ComponentLayout> layout);
  /// Quiesces and detaches from the scheduler before members go away; data
  /// still in memory is dropped (crash semantics — the WAL covers it).
  ~LsmBTree() override;

  /// Loads valid disk components (call once before use).
  Status Open();

  // -- Mutators (caller serializes per-key via the lock manager) ----------
  Status Upsert(const CompositeKey& key, std::vector<uint8_t> payload,
                uint64_t lsn);
  /// Antimatter for `key`. `payload` stays empty for B+-trees; an R-tree
  /// keeps the deleted entry's MBR there so spatial searches find the
  /// tombstone.
  Status Delete(const CompositeKey& key, uint64_t lsn,
                std::vector<uint8_t> payload = {});

  /// Forces all in-memory data to disk. In async mode this is a synchronous
  /// barrier: it waits for in-flight background maintenance to quiesce,
  /// then flushes whatever remains inline — on return the memtables are
  /// empty and the merge policy has been applied.
  Status Flush();

  /// Applies the merge policy now (normally triggered by maintenance).
  /// Barrier semantics in async mode, like Flush().
  Status MaybeMerge();

  // -- Compactable (scheduler worker entry points) -------------------------
  Status BackgroundFlush() override;
  Status BackgroundMerge() override;
  const std::string& compaction_label() const override;

  // -- Readers --------------------------------------------------------------
  /// LSM-resolved point lookup: newest component wins, antimatter hides.
  /// The memtables first, then a one-key cursor on each disk component the
  /// bloom filter admits, newest first.
  Status PointLookup(const CompositeKey& key, bool* found,
                     std::vector<uint8_t>* payload) const;

  /// LSM-resolved batch lookup of `keys` (ascending; duplicates allowed)
  /// under one shared lock, materializing only the projection's fields:
  /// the memtables first, then each disk component newest-first with its
  /// bloom-admitted subset of the still-unresolved keys. `cb(i, record)`
  /// then gets every keys[i] that resolves to a live record, in ascending
  /// `i`, after the lock is released. Requires `record_type`.
  Status MultiGet(const std::vector<CompositeKey>& keys,
                  const column::Projection& proj,
                  const std::function<Status(size_t, adm::Value)>& cb) const;

  /// LSM-resolved ordered range scan across all components. Every
  /// key-ordered reader below runs the one newest-wins merge of component
  /// cursors (NewestWinsMerge), which decodes winners only.
  Status RangeScan(const ScanBounds& bounds, const EntryCallback& cb) const;

  /// LSM-resolved scan materializing only the projection's fields (the
  /// callback's antimatter flag is always false — resolution happens here).
  /// Column components read only the touched column pages and skip row
  /// groups via per-page min/max stats when the group's key span is
  /// disjoint from every other component, memtables included (a skipped
  /// group that overlapped another component could resurrect an older
  /// version of its rows) — freely, then, when it is the only component.
  /// `stats` (optional) accumulates bytes/pages. With `filter`, a resolved
  /// record it drops never reaches `cb`; a row or memtable winner it drops
  /// has only the filter's key fields decoded.
  Status ProjectedScan(const ScanBounds& bounds, const column::Projection& proj,
                       const column::ProjectedEntryCallback& cb,
                       column::ProjectedScanStats* stats,
                       ScanKeyFilter* filter = nullptr) const;

  /// Live records within `bounds`, counted up to `cap` (the optimizer's row
  /// estimates): the merge resolves keys only, decoding no record, and
  /// stops reading once it reaches `cap`.
  Status CountEntries(const ScanBounds& bounds, uint64_t cap,
                      uint64_t* count) const;

  /// Vectorized scan: in the columnar single-component steady state, hands
  /// decoded column pages to the caller as typed ColumnBatches without row
  /// reconstruction (antimatter rows excluded via the selection vector).
  /// Returns Unimplemented whenever cross-component resolution or row
  /// assembly would be required — callers fall back to ProjectedScan.
  Status BatchScan(const ScanBounds& bounds, const column::Projection& proj,
                   const column::BatchCallback& cb,
                   column::ProjectedScanStats* stats) const;

  /// For searches the key-ordered readers cannot express (spatial): under
  /// the shared lock, hands `mem` the memtable then the rotated memtable,
  /// then `disk` each disk component, newest first.
  Status VisitNewestFirst(
      const std::function<Status(const MemTable&)>& mem,
      const std::function<Status(const DiskComponentReader&)>& disk) const;

  // -- Stats ---------------------------------------------------------------
  size_t mem_entries() const;
  size_t num_disk_components() const;
  uint64_t total_disk_bytes() const;
  uint64_t num_logical_entries() const;  // approximate (pre-merge counts)
  uint64_t flushed_lsn() const;

 private:
  struct DiskComponent {
    ComponentInfo info;
    std::shared_ptr<DiskComponentReader> reader;
  };
  /// A rotated (immutable) in-memory component awaiting its flush. Readers
  /// traverse `entries` under the shared lock while a background flush
  /// reads it lock-free — both sides are read-only, and the map is never
  /// mutated after rotation.
  struct ImmComponent {
    MemTable entries;
    size_t bytes = 0;
    uint64_t max_lsn = 0;
  };
  /// One flush or merge between its three steps. *Select* (under the tree
  /// lock) takes the inputs and allocates the output's file seq; *build*
  /// reads only immutable inputs, writes the component and its `.valid`
  /// marker and opens `out`; *install* (under the lock) splices `out` in,
  /// retires the inputs and does the accounting.
  struct Job {
    std::shared_ptr<const ImmComponent> imm;  // flush input
    std::vector<DiskComponent> inputs;        // merge input, oldest first
    bool includes_oldest = false;  // the merge may drop antimatter
    uint64_t file_seq = 0;
    uint64_t bytes_in = 0;
    uint64_t start_us = 0;
    DiskComponent out;
  };

  /// Upsert and Delete: writes `entry` into mem_, then trips the budget.
  Status Apply(const CompositeKey& key, MemEntry entry, uint64_t lsn);
  /// The single budget-trip path: rotate and schedule in async mode
  /// (throttling when the previous rotation is still in flight), flush
  /// inline in sync mode. May release and reacquire `lock`; every stall
  /// goes through RecordWriteStall exactly once.
  Status MaybeRotateLocked(std::unique_lock<std::shared_mutex>& lock);
  /// Moves mem_ into a fresh imm_ (requires the unique lock; imm_ empty).
  void RotateLocked();
  /// Flushes imm_ (if any) then mem_ inline, then applies the merge policy.
  Status FlushLocked();
  /// Waits out in-flight background jobs (the Flush/MaybeMerge barriers).
  Status BarrierLocked(std::unique_lock<std::shared_mutex>& lock);
  /// Select, build and install one job of `kind` under the unique lock.
  /// Sync callers pass no lock; a background job passes its lock, which is
  /// released around build. OK with nothing done when select finds no work.
  Status RunJobLocked(CompactionJobKind kind,
                      std::unique_lock<std::shared_mutex>* unlock_for_build);
  /// A scheduler worker's job: RunJobLocked with the lock dropped around
  /// build, then queue the follow-up work the install left behind.
  Status RunBackground(CompactionJobKind kind);
  bool SelectFlushLocked(Job* job);
  bool SelectMergeLocked(Job* job);
  Status BuildFlush(Job* job);
  Status BuildMerge(Job* job);
  /// Opens a built component file as `job->out` (build's last step).
  Status OpenOutput(const std::string& path, uint64_t sort_seq,
                    uint64_t num_entries, uint64_t max_lsn, Job* job) const;
  void InstallFlushLocked(Job* job);
  Status InstallMergeLocked(Job* job);
  /// storage.lsm.* metrics, ledger bytes and the end-of-job journal event
  /// for a built job about to install.
  void RecordInstall(const Job& job) const;
  /// Merge-policy decision over the current disk_ state; false = no merge.
  bool SelectMergeRunLocked(size_t* first, size_t* count) const;
  /// The newest-wins merge of cursors over every component's entries within
  /// `bounds` (requires the lock, shared or unique, while it is read).
  Result<NewestWinsMerge> ScanLocked(const ScanBounds& bounds,
                                     const column::Projection& proj,
                                     column::ProjectedScanStats* stats) const;

  std::unique_ptr<ComponentLayout> layout_;
  LsmLifecycle lifecycle_;
  LsmOptions options_;

  mutable std::shared_mutex mu_;
  MemTable mem_;
  size_t mem_bytes_ = 0;
  uint64_t mem_max_lsn_ = 0;
  uint64_t flushed_lsn_ = 0;
  // Oldest first; the in-memory components are conceptually at the end
  // (imm_ older than mem_).
  std::vector<DiskComponent> disk_;
  /// Rotated memtable being flushed in the background; null when none.
  std::shared_ptr<const ImmComponent> imm_;
  /// Signaled when imm_ clears (or bg_error_ is set): wakes writers blocked
  /// at the hard memory ceiling and the barrier retry loops.
  mutable std::condition_variable_any imm_cv_;
  /// Escalates the soft-throttle delay while the flush pool is behind;
  /// reset whenever a rotation succeeds or the budget has headroom.
  uint32_t throttle_level_ = 0;
  /// True while a background job is building outside the lock; barriers
  /// wait for these so an inline flush/merge can't duplicate in-flight
  /// work (cleared with an imm_cv_ notify).
  bool flush_inflight_ = false;
  bool merge_inflight_ = false;
  /// First error from a background job; surfaced to the next writer or
  /// barrier call (the tree stops accepting writes until reopened).
  Status bg_error_;
};

}  // namespace storage
}  // namespace asterix

#endif  // ASTERIX_STORAGE_LSM_H_
