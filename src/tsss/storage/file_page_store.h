#ifndef TSSS_STORAGE_FILE_PAGE_STORE_H_
#define TSSS_STORAGE_FILE_PAGE_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tsss/common/mutex.h"
#include "tsss/common/status.h"
#include "tsss/common/thread_annotations.h"
#include "tsss/storage/page_store.h"

namespace tsss::storage {

/// File-backed page store: page i lives at byte offset i * 4096 of `path`,
/// and a sidecar file `path + ".meta"` records the allocation state plus a
/// CRC-32 per page, verified on every read.
///
/// Durability model: Sync() persists the metadata; page bytes go to the file
/// with pwrite() and are not fsync'ed. The destructor calls Sync()
/// best-effort. Crash atomicity (journaling) is out of scope - this store
/// exists to persist built indexes and to keep the I/O path honest, not to be
/// a transactional engine. A store whose Create() or Open() failed is never
/// built, so it never writes: a rejected metadata file stays as it was.
///
/// Thread-safety: internally synchronized. Pages are read and written with
/// pread()/pwrite() on one descriptor, which carry their own offsets, so the
/// store mutex guards only the allocation metadata (liveness flags, stored
/// checksums, free list, live count). Read() holds it only to check
/// liveness and copy the expected CRC; the I/O and the CRC run outside it,
/// so misses on different pages proceed in parallel. Per-page contract: a
/// Read and a Write of the same page never overlap (the buffer pool runs
/// both under that page's shard lock). Allocate/Free follow the volume-shape
/// single-writer contract of PageStore (see DESIGN.md §8).
class FilePageStore final : public PageStore {
 public:
  /// Creates a fresh (truncated) volume.
  static Result<std::unique_ptr<FilePageStore>> Create(const std::string& path);

  /// Opens an existing volume created by Create()/Sync().
  static Result<std::unique_ptr<FilePageStore>> Open(const std::string& path);

  ~FilePageStore() override;

  FilePageStore(const FilePageStore&) = delete;
  FilePageStore& operator=(const FilePageStore&) = delete;

  PageId Allocate() override;
  Status Free(PageId id) override;
  Status Read(PageId id, Page* out) override;
  Status Write(PageId id, const Page& page) override;
  std::size_t num_live_pages() const override {
    MutexLock lock(mu_);
    return meta_.live_count;
  }
  std::size_t capacity_pages() const override {
    MutexLock lock(mu_);
    return meta_.live.size();
  }

  /// Persists the metadata (allocation state + checksums).
  Status Sync();

  const std::string& path() const { return path_; }

 private:
  /// Allocation state, as kept in memory and in the metadata file.
  struct Meta {
    std::vector<bool> live;
    std::vector<std::uint32_t> crc;
    std::vector<PageId> free_list;  ///< derived from `live`, not stored
    std::size_t live_count = 0;
  };

  /// Takes ownership of the open descriptor `fd`.
  FilePageStore(std::string path, int fd, Meta meta);

  /// Parses and validates a metadata file; `out` is untouched on error.
  static Status ReadMeta(const std::string& meta_path, Meta* out);
  static Status WriteMeta(const std::string& meta_path, const Meta& meta);

  Status CheckLive(PageId id) const TSSS_REQUIRES(mu_);
  std::string MetaPath() const { return path_ + ".meta"; }

  const std::string path_;
  /// The data file, open O_RDWR for the store's whole lifetime. Its offset
  /// is never used: every transfer names its own.
  const int fd_;
  /// Guards the allocation metadata, never the file I/O.
  mutable Mutex mu_;
  Meta meta_ TSSS_GUARDED_BY(mu_);
};

}  // namespace tsss::storage

#endif  // TSSS_STORAGE_FILE_PAGE_STORE_H_
