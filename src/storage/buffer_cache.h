#ifndef ASTERIX_STORAGE_BUFFER_CACHE_H_
#define ASTERIX_STORAGE_BUFFER_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace asterix {
namespace storage {

/// Page size used by all disk index components.
constexpr size_t kPageSize = 4096;

using FileId = uint32_t;
using PageData = std::vector<uint8_t>;
using PagePtr = std::shared_ptr<const PageData>;

/// A read-through LRU page cache shared by all disk components on a node.
/// Disk components are immutable once written (LSM shadowing), so there is
/// no dirty-page management: pages are only ever read, cached, and evicted.
/// Thread-safe; returned pages stay valid after eviction because callers
/// hold shared ownership. Each registered file is opened once and read with
/// pread() through that one descriptor.
class BufferCache {
 public:
  /// `capacity_pages` bounds resident pages (LRU beyond that).
  explicit BufferCache(size_t capacity_pages);

  /// Opens a file for paged access. The file must exist; once open, reads
  /// keep working even if the path is unlinked.
  Result<FileId> OpenFile(const std::string& path);

  /// Drops a file's pages and forgets the id (called when a merged-away
  /// component is destroyed). The descriptor closes once no read of the
  /// file is in flight.
  void CloseFile(FileId id);

  /// Fetches page `page_no` of `file`, reading through on miss.
  Result<PagePtr> GetPage(FileId file, uint32_t page_no);

  /// Reads the raw byte range [offset, offset+n) of `file`, bypassing the
  /// page map (used for footers, whose size is not page-aligned).
  Status ReadRange(FileId file, uint64_t offset, size_t n,
                   std::vector<uint8_t>* out);

  uint64_t FileSizeBytes(FileId file);

  /// Cache statistics, for the ablation benches.
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  struct Key {
    FileId file;
    uint32_t page;
    bool operator<(const Key& o) const {
      return file != o.file ? file < o.file : page < o.page;
    }
  };
  struct Entry {
    PagePtr data;
    std::list<Key>::iterator lru_it;
  };
  /// An open file. Readers copy the shared handle under the lock and read
  /// outside it, so a descriptor stays valid for a read already in flight
  /// when CloseFile runs: a reused descriptor number can never serve
  /// another file's bytes.
  struct File {
    File(std::string path, int fd) : path(std::move(path)), fd(fd) {}
    ~File();
    File(const File&) = delete;
    File& operator=(const File&) = delete;
    std::string path;
    int fd;
  };
  using FilePtr = std::shared_ptr<const File>;

  /// Requires mu_ held.
  Result<FilePtr> FindFileLocked(FileId id) const;

  void Touch(const Key& key, Entry& e);
  void EvictIfNeeded();

  std::mutex mu_;
  size_t capacity_;
  std::map<Key, Entry> pages_;
  std::list<Key> lru_;  // front = most recent
  std::map<FileId, FilePtr> files_;
  FileId next_file_id_ = 1;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace storage
}  // namespace asterix

#endif  // ASTERIX_STORAGE_BUFFER_CACHE_H_
