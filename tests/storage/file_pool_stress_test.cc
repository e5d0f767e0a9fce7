// Concurrent buffer-pool misses over a real FilePageStore. Several threads
// fetch overlapping random page sequences through a sharded pool much
// smaller than the volume, so most fetches miss and read the file in
// parallel; a second phase makes every thread miss on the same page at
// once. Every fetched page must carry its own bytes, and each miss must
// load the page exactly once (the CI TSan job runs this file under
// -fsanitize=thread).

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "tsss/common/rng.h"
#include "tsss/storage/buffer_pool.h"
#include "tsss/storage/file_page_store.h"

namespace tsss::storage {
namespace {

constexpr std::size_t kPages = 320;
constexpr std::size_t kPoolPages = 64;  // sharded: kNumShards shards
constexpr std::size_t kThreads = 6;
constexpr std::size_t kFetchesPerThread = 1500;
constexpr std::size_t kSamePageRounds = 12;

/// Distinct, position-dependent content for every page.
Page ContentOf(PageId id) {
  Page page;
  for (std::size_t i = 0; i < kPageSize; ++i) {
    page.bytes[i] = static_cast<std::uint8_t>((id * 131u + i * 7u) ^ (i >> 8));
  }
  return page;
}

class FilePoolStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/tsss_file_pool_stress_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".pages";
    auto store = FilePageStore::Create(path_);
    ASSERT_TRUE(store.ok()) << store.status();
    store_ = std::move(store).value();
    for (std::size_t i = 0; i < kPages; ++i) {
      const PageId id = store_->Allocate();
      ASSERT_EQ(id, static_cast<PageId>(i));
      ASSERT_TRUE(store_->Write(id, ContentOf(id)).ok());
    }
    store_->ResetMetrics();
  }

  void TearDown() override {
    store_.reset();
    std::remove(path_.c_str());
    std::remove((path_ + ".meta").c_str());
  }

  std::string path_;
  std::unique_ptr<FilePageStore> store_;
};

/// Fetches `id` and compares its bytes with ContentOf(id); counts failures
/// instead of asserting so worker threads never return early.
void FetchAndCheck(BufferPool& pool, PageId id, std::size_t* failures) {
  Result<PageGuard> guard = pool.Fetch(id);
  if (!guard.ok() || guard->page().bytes != ContentOf(id).bytes) ++*failures;
}

TEST_F(FilePoolStressTest, ConcurrentMissesReadEveryPageExactlyOnce) {
  BufferPool pool(store_.get(), kPoolPages);

  // Phase 1: overlapping random sequences, mostly misses.
  {
    std::vector<std::size_t> failures(kThreads, 0);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&pool, &failures, t] {
        Rng rng(1000 + t);
        for (std::size_t i = 0; i < kFetchesPerThread; ++i) {
          const auto id = static_cast<PageId>(
              rng.UniformInt(0, static_cast<std::int64_t>(kPages) - 1));
          FetchAndCheck(pool, id, &failures[t]);
        }
      });
    }
    for (std::thread& th : threads) th.join();
    for (std::size_t t = 0; t < kThreads; ++t) {
      EXPECT_EQ(failures[t], 0u) << "thread " << t;
    }
  }
  EXPECT_GT(pool.metrics().misses, kThreads * kFetchesPerThread / 2);

  // Phase 2: from a cold pool, every thread misses on the same page at once.
  for (std::size_t round = 0; round < kSamePageRounds; ++round) {
    ASSERT_TRUE(pool.Clear().ok());
    const auto id = static_cast<PageId>(round * 17 % kPages);
    const std::uint64_t misses_before = pool.metrics().misses;
    std::vector<std::size_t> failures(kThreads, 0);
    std::latch start(static_cast<std::ptrdiff_t>(kThreads));
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&pool, &failures, &start, id, t] {
        start.arrive_and_wait();
        FetchAndCheck(pool, id, &failures[t]);
      });
    }
    for (std::thread& th : threads) th.join();
    for (std::size_t t = 0; t < kThreads; ++t) {
      EXPECT_EQ(failures[t], 0u) << "round " << round << " thread " << t;
    }
    EXPECT_EQ(pool.metrics().misses - misses_before, 1u) << "round " << round;
  }

  EXPECT_EQ(store_->metrics().physical_reads, pool.metrics().misses);
  EXPECT_EQ(store_->metrics().physical_writes, 0u);
  Status audit = pool.AuditPins();
  EXPECT_TRUE(audit.ok()) << audit;
}

}  // namespace
}  // namespace tsss::storage
