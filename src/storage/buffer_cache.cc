#include "storage/buffer_cache.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>

#include "common/metrics.h"

namespace {

asterix::metrics::Counter* CacheHits() {
  static asterix::metrics::Counter* c =
      asterix::metrics::MetricsRegistry::Default().GetCounter(
          "storage.cache.hits");
  return c;
}

asterix::metrics::Counter* CacheMisses() {
  static asterix::metrics::Counter* c =
      asterix::metrics::MetricsRegistry::Default().GetCounter(
          "storage.cache.misses");
  return c;
}

asterix::metrics::Counter* CacheBytesRead() {
  static asterix::metrics::Counter* c =
      asterix::metrics::MetricsRegistry::Default().GetCounter(
          "storage.cache.bytes_read");
  return c;
}

}  // namespace

namespace asterix {
namespace storage {

BufferCache::BufferCache(size_t capacity_pages) : capacity_(capacity_pages) {}

BufferCache::File::~File() { ::close(fd); }

namespace {

/// pread()s up to `n` bytes at `offset`, retrying short reads; returns the
/// bytes read (fewer than `n` only at end of file) or -1 on error.
ssize_t PreadFull(int fd, uint8_t* buf, size_t n, uint64_t offset) {
  size_t got = 0;
  while (got < n) {
    ssize_t r = ::pread(fd, buf + got, n - got,
                        static_cast<off_t>(offset + got));
    if (r < 0 && errno == EINTR) continue;
    if (r < 0) return -1;
    if (r == 0) break;
    got += static_cast<size_t>(r);
  }
  return static_cast<ssize_t>(got);
}

}  // namespace

Result<FileId> BufferCache::OpenFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return Status::IOError("no such file: " + path);
    return Status::IOError("open: " + path + ": " + std::strerror(errno));
  }
  auto file = std::make_shared<const File>(path, fd);
  std::lock_guard<std::mutex> lock(mu_);
  FileId id = next_file_id_++;
  files_[id] = std::move(file);
  return id;
}

void BufferCache::CloseFile(FileId id) {
  std::lock_guard<std::mutex> lock(mu_);
  files_.erase(id);
  auto first = pages_.lower_bound(Key{id, 0});
  auto last = pages_.upper_bound(Key{id, UINT32_MAX});
  for (auto it = first; it != last; ++it) lru_.erase(it->second.lru_it);
  pages_.erase(first, last);
}

Result<BufferCache::FilePtr> BufferCache::FindFileLocked(FileId id) const {
  auto fit = files_.find(id);
  if (fit == files_.end()) return Status::Internal("unknown file id");
  return fit->second;
}

void BufferCache::Touch(const Key& key, Entry& e) {
  lru_.erase(e.lru_it);
  lru_.push_front(key);
  e.lru_it = lru_.begin();
}

void BufferCache::EvictIfNeeded() {
  while (pages_.size() > capacity_ && !lru_.empty()) {
    Key victim = lru_.back();
    lru_.pop_back();
    pages_.erase(victim);
  }
}

Result<PagePtr> BufferCache::GetPage(FileId file, uint32_t page_no) {
  FilePtr f;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Key key{file, page_no};
    auto it = pages_.find(key);
    if (it != pages_.end()) {
      ++hits_;
      CacheHits()->Inc();
      Touch(key, it->second);
      return it->second.data;
    }
    ++misses_;
    CacheMisses()->Inc();
    ASTERIX_ASSIGN_OR_RETURN(f, FindFileLocked(file));
  }
  // Read outside the lock; duplicate racing reads are acceptable.
  auto page = std::make_shared<PageData>(kPageSize);
  ssize_t got = PreadFull(f->fd, page->data(), kPageSize,
                          static_cast<uint64_t>(page_no) * kPageSize);
  if (got < 0) {
    return Status::IOError("read: " + f->path + ": " + std::strerror(errno));
  }
  if (got == 0) return Status::IOError("read page past EOF: " + f->path);
  page->resize(static_cast<size_t>(got));
  CacheBytesRead()->Inc(static_cast<uint64_t>(got));
  std::lock_guard<std::mutex> lock(mu_);
  Key key{file, page_no};
  auto [it, inserted] = pages_.emplace(key, Entry{page, lru_.end()});
  if (inserted) {
    lru_.push_front(key);
    it->second.lru_it = lru_.begin();
    EvictIfNeeded();
  }
  return it->second.data;
}

Status BufferCache::ReadRange(FileId file, uint64_t offset, size_t n,
                              std::vector<uint8_t>* out) {
  FilePtr f;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ASTERIX_ASSIGN_OR_RETURN(f, FindFileLocked(file));
  }
  out->resize(n);
  ssize_t got = PreadFull(f->fd, out->data(), n, offset);
  if (got < 0) {
    return Status::IOError("read: " + f->path + ": " + std::strerror(errno));
  }
  if (static_cast<size_t>(got) != n) {
    return Status::IOError("short read: " + f->path);
  }
  CacheBytesRead()->Inc(n);
  return Status::OK();
}

uint64_t BufferCache::FileSizeBytes(FileId file) {
  FilePtr f;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto fit = files_.find(file);
    if (fit == files_.end()) return 0;
    f = fit->second;
  }
  struct stat st;
  if (::fstat(f->fd, &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

}  // namespace storage
}  // namespace asterix
