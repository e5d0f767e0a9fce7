#include "tsss/storage/file_page_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <utility>

#include "tsss/common/crc32.h"
#include "tsss/obs/metrics.h"

namespace tsss::storage {
namespace {

constexpr std::uint64_t kMetaMagic = 0x5453535350414745ull;  // "TSSSPAGE"

template <typename T>
void PutScalar(std::ostream& os, T value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool GetScalar(std::istream& is, T* value) {
  is.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(is);
}

/// Closes a descriptor on every early return of Create/Open; Release()
/// hands it to the store once the store is built.
class ScopedFd {
 public:
  explicit ScopedFd(int fd) : fd_(fd) {}
  ~ScopedFd() {
    if (fd_ >= 0) ::close(fd_);
  }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;

  int get() const { return fd_; }
  int Release() { return std::exchange(fd_, -1); }

 private:
  int fd_;
};

std::string ErrnoText() { return std::strerror(errno); }

off_t PageOffset(PageId id) {
  return static_cast<off_t>(id) * static_cast<off_t>(kPageSize);
}

/// Reads exactly one page at `offset`, resuming after EINTR and short reads.
/// End of file before a full page is an error.
Status ReadPageAt(int fd, off_t offset, std::uint8_t* out, PageId id) {
  std::size_t done = 0;
  while (done < kPageSize) {
    const ssize_t n = ::pread(fd, out + done, kPageSize - done,
                              offset + static_cast<off_t>(done));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      return Status::IoError("read of page " + std::to_string(id) +
                             " failed: " + ErrnoText());
    }
    if (n == 0) return Status::IoError("short read on page " + std::to_string(id));
    done += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

/// Writes exactly one page at `offset`, resuming after EINTR and short
/// writes.
Status WritePageAt(int fd, off_t offset, const std::uint8_t* bytes, PageId id) {
  std::size_t done = 0;
  while (done < kPageSize) {
    const ssize_t n = ::pwrite(fd, bytes + done, kPageSize - done,
                               offset + static_cast<off_t>(done));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      return Status::IoError("write of page " + std::to_string(id) +
                             " failed: " + (n < 0 ? ErrnoText() : "no progress"));
    }
    done += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

}  // namespace

FilePageStore::FilePageStore(std::string path, int fd, Meta meta)
    : path_(std::move(path)), fd_(fd), meta_(std::move(meta)) {}

FilePageStore::~FilePageStore() {
  // A destructor cannot propagate, but a failed final Sync means the
  // metadata on disk is stale — count it where an operator can see it.
  Status s = Sync();
  if (!s.ok()) {
    obs::MetricsRegistry::Global()
        .GetCounter("tsss_store_dtor_sync_failures_total",
                    "Sync failures during FilePageStore destruction (on-disk "
                    "metadata left stale)")
        ->Inc();
  }
  ::close(fd_);
}

Result<std::unique_ptr<FilePageStore>> FilePageStore::Create(
    const std::string& path) {
  ScopedFd fd(::open(path.c_str(), O_RDWR | O_CLOEXEC | O_CREAT | O_TRUNC,
                     0644));
  if (fd.get() < 0) {
    return Status::IoError("cannot create page file '" + path +
                           "': " + ErrnoText());
  }
  Meta empty;
  Status s = WriteMeta(path + ".meta", empty);
  if (!s.ok()) return s;
  return std::unique_ptr<FilePageStore>(
      new FilePageStore(path, fd.Release(), std::move(empty)));
}

Result<std::unique_ptr<FilePageStore>> FilePageStore::Open(
    const std::string& path) {
  ScopedFd fd(::open(path.c_str(), O_RDWR | O_CLOEXEC));
  if (fd.get() < 0) {
    return Status::IoError("cannot open page file '" + path +
                           "': " + ErrnoText());
  }
  Meta meta;
  Status s = ReadMeta(path + ".meta", &meta);
  if (!s.ok()) return s;

  // Sanity: the data file must hold every page the metadata declares
  // (ReadMeta bounded the capacity by the metadata size, so the product
  // cannot overflow).
  struct stat st {};
  if (::fstat(fd.get(), &st) != 0) {
    return Status::IoError("cannot stat page file '" + path +
                           "': " + ErrnoText());
  }
  if (static_cast<std::uint64_t>(st.st_size) <
      static_cast<std::uint64_t>(meta.live.size()) * kPageSize) {
    return Status::Corruption("page file shorter than metadata capacity");
  }
  return std::unique_ptr<FilePageStore>(
      new FilePageStore(path, fd.Release(), std::move(meta)));
}

Status FilePageStore::ReadMeta(const std::string& meta_path, Meta* out) {
  std::ifstream in(meta_path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open metadata file '" + meta_path + "'");
  }
  // The declared capacity is untrusted input: validate it against the actual
  // metadata file size BEFORE sizing any allocation by it, so a corrupt
  // header cannot demand a multi-gigabyte resize (each page contributes
  // exactly kMetaBytesPerPage bytes to the body).
  in.seekg(0, std::ios::end);
  const auto meta_size = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0, std::ios::beg);
  constexpr std::uint64_t kMetaHeaderBytes = 3 * sizeof(std::uint64_t);
  constexpr std::uint64_t kMetaBytesPerPage =
      sizeof(std::uint8_t) + sizeof(std::uint32_t);
  std::uint64_t magic = 0;
  std::uint64_t capacity = 0;
  std::uint64_t live_count = 0;
  if (!GetScalar(in, &magic) || magic != kMetaMagic) {
    return Status::Corruption("bad metadata magic in '" + meta_path + "'");
  }
  if (!GetScalar(in, &capacity) || !GetScalar(in, &live_count)) {
    return Status::Corruption("truncated metadata header");
  }
  if (meta_size < kMetaHeaderBytes ||
      capacity > (meta_size - kMetaHeaderBytes) / kMetaBytesPerPage) {
    return Status::Corruption(
        "metadata declares " + std::to_string(capacity) +
        " pages but the file only holds " +
        std::to_string((meta_size - kMetaHeaderBytes) / kMetaBytesPerPage));
  }
  if (capacity > static_cast<std::uint64_t>(kInvalidPageId)) {
    return Status::Corruption("metadata capacity " + std::to_string(capacity) +
                              " exceeds the page-id space");
  }
  if (live_count > capacity) {
    return Status::Corruption("metadata live count " +
                              std::to_string(live_count) +
                              " exceeds capacity " + std::to_string(capacity));
  }
  Meta meta;
  meta.live.resize(capacity);
  meta.crc.resize(capacity);
  std::uint64_t live_recount = 0;
  for (std::uint64_t i = 0; i < capacity; ++i) {
    std::uint8_t alive = 0;
    std::uint32_t crc = 0;
    if (!GetScalar(in, &alive) || !GetScalar(in, &crc)) {
      return Status::Corruption("truncated metadata body");
    }
    meta.live[i] = alive != 0;
    meta.crc[i] = crc;
    if (alive == 0) {
      meta.free_list.push_back(static_cast<PageId>(i));
    } else {
      ++live_recount;
    }
  }
  if (live_recount != live_count) {
    return Status::Corruption(
        "metadata live count " + std::to_string(live_count) +
        " does not match the " + std::to_string(live_recount) +
        " pages marked live");
  }
  meta.live_count = live_count;
  *out = std::move(meta);
  return Status::OK();
}

Status FilePageStore::WriteMeta(const std::string& meta_path,
                                const Meta& meta) {
  std::ofstream out(meta_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IoError("cannot write metadata file '" + meta_path + "'");
  }
  PutScalar<std::uint64_t>(out, kMetaMagic);
  PutScalar<std::uint64_t>(out, meta.live.size());
  PutScalar<std::uint64_t>(out, meta.live_count);
  for (std::size_t i = 0; i < meta.live.size(); ++i) {
    PutScalar<std::uint8_t>(out, meta.live[i] ? 1 : 0);
    PutScalar<std::uint32_t>(out, meta.crc[i]);
  }
  out.flush();
  if (!out) return Status::IoError("metadata write failed");
  return Status::OK();
}

Status FilePageStore::CheckLive(PageId id) const {
  if (id >= meta_.live.size() || !meta_.live[id]) {
    return Status::NotFound("page " + std::to_string(id) + " is not live");
  }
  return Status::OK();
}

PageId FilePageStore::Allocate() {
  const Page zero{};
  const std::uint32_t zero_crc = Crc32(zero.bytes.data(), kPageSize);
  PageId id;
  {
    MutexLock lock(mu_);
    if (!meta_.free_list.empty()) {
      id = meta_.free_list.back();
      meta_.free_list.pop_back();
      meta_.live[id] = true;
    } else {
      id = static_cast<PageId>(meta_.live.size());
      meta_.live.push_back(true);
      meta_.crc.push_back(0);
    }
    meta_.crc[id] = zero_crc;
    ++meta_.live_count;
  }
  // Zero-fill on disk so recycled/extended pages read back deterministically.
  // Allocate cannot report an error; a failed fill leaves bytes that do not
  // match the stored zero-page CRC, so the next Read reports Corruption.
  // discard-ok: surfaces as Corruption on the next Read (above)
  (void)WritePageAt(fd_, PageOffset(id), zero.bytes.data(), id);
  return id;
}

Status FilePageStore::Free(PageId id) {
  MutexLock lock(mu_);
  Status s = CheckLive(id);
  if (!s.ok()) return s;
  meta_.live[id] = false;
  meta_.free_list.push_back(id);
  --meta_.live_count;
  return Status::OK();
}

Status FilePageStore::Read(PageId id, Page* out) {
  std::uint32_t expected = 0;
  {
    MutexLock lock(mu_);
    Status s = CheckLive(id);
    if (!s.ok()) return s;
    expected = meta_.crc[id];
  }
  ++metrics_.physical_reads;
  Status s = ReadPageAt(fd_, PageOffset(id), out->bytes.data(), id);
  if (!s.ok()) return s;
  if (Crc32(out->bytes.data(), kPageSize) != expected) {
    return Status::Corruption("checksum mismatch on page " + std::to_string(id));
  }
  return Status::OK();
}

Status FilePageStore::Write(PageId id, const Page& page) {
  const std::uint32_t crc = Crc32(page.bytes.data(), kPageSize);
  {
    MutexLock lock(mu_);
    Status s = CheckLive(id);
    if (!s.ok()) return s;
  }
  ++metrics_.physical_writes;
  Status s = WritePageAt(fd_, PageOffset(id), page.bytes.data(), id);
  if (!s.ok()) return s;
  MutexLock lock(mu_);
  meta_.crc[id] = crc;
  return Status::OK();
}

Status FilePageStore::Sync() {
  MutexLock lock(mu_);
  return WriteMeta(MetaPath(), meta_);
}

}  // namespace tsss::storage
