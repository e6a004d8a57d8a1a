// Tests for src/store/checkpoint_store: durable keyed blobs over segment
// files + MANIFEST, background/foreground compaction, and crash-safe
// recovery from every compaction phase (the docs/storage.md invariants).

#include "src/store/checkpoint_store.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/fault_fs.h"

namespace fs = std::filesystem;

namespace ldphh {
namespace {

class CheckpointStoreTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/ldphh_store_" +
           testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
           std::to_string(::getpid());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  // Small segments and no background thread: tests control compaction.
  CheckpointStoreOptions SmallSegments(size_t max_bytes = 256) {
    CheckpointStoreOptions o;
    o.segment_max_bytes = max_bytes;
    o.background_compaction = false;
    return o;
  }

  std::unique_ptr<CheckpointStore> MustOpen(const CheckpointStoreOptions& o) {
    auto store_or = CheckpointStore::Open(dir_, o);
    EXPECT_TRUE(store_or.ok()) << store_or.status().ToString();
    return std::move(store_or).value();
  }

  size_t SegmentFilesOnDisk() const {
    size_t n = 0;
    for (const auto& e : fs::directory_iterator(dir_)) {
      if (e.path().extension() == ".seg") ++n;
    }
    return n;
  }

  // The segment currently receiving appends (largest number on disk is the
  // active one in every scenario these tests build).
  fs::path NewestSegmentPath() const {
    fs::path newest;
    for (const auto& e : fs::directory_iterator(dir_)) {
      if (e.path().extension() != ".seg") continue;
      if (newest.empty() || e.path().filename() > newest.filename()) {
        newest = e.path();
      }
    }
    return newest;
  }

  std::string dir_;
};

std::string Blob(uint64_t key, size_t size = 40) {
  std::string b = "blob-" + std::to_string(key) + "-";
  while (b.size() < size) b.push_back(static_cast<char>('a' + key % 26));
  return b;
}

TEST_F(CheckpointStoreTest, PutGetDeleteRoundTrip) {
  auto store = MustOpen(SmallSegments(1 << 20));
  ASSERT_TRUE(store->Put(7, "seven").ok());
  ASSERT_TRUE(store->Put(3, "three").ok());
  ASSERT_TRUE(store->Put(7, "seven-v2").ok());  // Last write wins.

  std::string blob;
  ASSERT_TRUE(store->Get(7, &blob).ok());
  EXPECT_EQ(blob, "seven-v2");
  ASSERT_TRUE(store->Get(3, &blob).ok());
  EXPECT_EQ(blob, "three");
  EXPECT_EQ(store->Get(99, &blob).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(store->Keys(), (std::vector<uint64_t>{3, 7}));

  ASSERT_TRUE(store->Delete(3).ok());
  ASSERT_TRUE(store->Delete(99).ok());  // Absent key is fine.
  EXPECT_FALSE(store->Contains(3));
  EXPECT_EQ(store->Keys(), (std::vector<uint64_t>{7}));
}

TEST_F(CheckpointStoreTest, ReopenRecoversEverything) {
  {
    auto store = MustOpen(SmallSegments());
    for (uint64_t k = 0; k < 50; ++k) ASSERT_TRUE(store->Put(k, Blob(k)).ok());
    ASSERT_TRUE(store->Put(10, "overwritten").ok());
    ASSERT_TRUE(store->Delete(20).ok());
    EXPECT_GT(store->Stats().live_segments, 2u);  // Small segments rolled.
  }
  auto store = MustOpen(SmallSegments());
  EXPECT_EQ(store->Keys().size(), 49u);
  std::string blob;
  ASSERT_TRUE(store->Get(10, &blob).ok());
  EXPECT_EQ(blob, "overwritten");
  EXPECT_FALSE(store->Contains(20));
  ASSERT_TRUE(store->Get(49, &blob).ok());
  EXPECT_EQ(blob, Blob(49));
  EXPECT_GT(store->Stats().recovered_records, 0u);
}

TEST_F(CheckpointStoreTest, CompactionConsolidatesAndDeletesInputs) {
  auto store = MustOpen(SmallSegments());
  for (uint64_t k = 0; k < 60; ++k) ASSERT_TRUE(store->Put(k, Blob(k)).ok());
  for (uint64_t k = 0; k < 60; k += 2) {
    ASSERT_TRUE(store->Put(k, Blob(k + 1000)).ok());  // Supersede half.
  }
  for (uint64_t k = 0; k < 10; ++k) ASSERT_TRUE(store->Delete(k).ok());
  const auto before = store->Stats();
  ASSERT_GT(before.sealed_segments, 3u);

  ASSERT_TRUE(store->Compact().ok());
  const auto after = store->Stats();
  EXPECT_EQ(after.compactions, 1u);
  // One consolidated snapshot segment + the active segment.
  EXPECT_EQ(after.sealed_segments, 1u);
  EXPECT_EQ(SegmentFilesOnDisk(), after.live_segments);

  // Contents unchanged, on disk too.
  auto reopened = MustOpen(SmallSegments());
  EXPECT_EQ(reopened->Keys().size(), 50u);
  std::string blob;
  ASSERT_TRUE(reopened->Get(12, &blob).ok());
  EXPECT_EQ(blob, Blob(1012));
  ASSERT_TRUE(reopened->Get(13, &blob).ok());
  EXPECT_EQ(blob, Blob(13));
  EXPECT_FALSE(reopened->Contains(4));
}

TEST_F(CheckpointStoreTest, BackgroundCompactionTriggers) {
  CheckpointStoreOptions o;
  o.segment_max_bytes = 256;
  o.background_compaction = true;
  o.compaction_trigger = 3;
  auto store = MustOpen(o);
  for (uint64_t k = 0; k < 200; ++k) ASSERT_TRUE(store->Put(k, Blob(k)).ok());
  ASSERT_TRUE(store->WaitForCompaction().ok());
  const auto stats = store->Stats();
  EXPECT_GE(stats.compactions, 1u);
  EXPECT_LT(stats.sealed_segments, 3u);
  for (uint64_t k = 0; k < 200; ++k) EXPECT_TRUE(store->Contains(k));
}

TEST_F(CheckpointStoreTest, ConcurrentPutsDuringCompactionLoseNothing) {
  auto store = MustOpen(SmallSegments());
  for (uint64_t k = 0; k < 40; ++k) ASSERT_TRUE(store->Put(k, Blob(k)).ok());
  std::thread writer([&] {
    for (uint64_t k = 1000; k < 1200; ++k) {
      ASSERT_TRUE(store->Put(k, Blob(k)).ok());
    }
  });
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(store->Compact().ok());
  writer.join();
  ASSERT_TRUE(store->Compact().ok());
  EXPECT_EQ(store->Keys().size(), 240u);
  auto reopened = MustOpen(SmallSegments());
  EXPECT_EQ(reopened->Keys().size(), 240u);
}

// ------------------------------------------------------- crash injection --

// Crash mid-append: a torn record at the end of the active segment must
// cost only the unacknowledged record, at every truncation point.
TEST_F(CheckpointStoreTest, TornActiveTailRecoversAcknowledgedPuts) {
  std::string bytes;
  {
    auto store = MustOpen(SmallSegments(1 << 20));
    for (uint64_t k = 0; k < 5; ++k) ASSERT_TRUE(store->Put(k, Blob(k)).ok());
  }
  const fs::path active = NewestSegmentPath();
  {
    std::ifstream in(active, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  // Keep the first record intact; chop the file at every later byte.
  const size_t first_end = kCheckpointRecordHeaderSize + 16 + Blob(0).size();
  for (size_t cut = first_end; cut < bytes.size(); cut += 7) {
    std::ofstream out(active, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(cut));
    out.close();

    auto store = MustOpen(SmallSegments(1 << 20));
    std::string blob;
    ASSERT_TRUE(store->Get(0, &blob).ok()) << "cut at " << cut;
    EXPECT_EQ(blob, Blob(0));
    // Write after recovery, then verify the new put survives another open.
    ASSERT_TRUE(store->Put(777, "post-crash").ok());
    store.reset();
    auto again = MustOpen(SmallSegments(1 << 20));
    ASSERT_TRUE(again->Get(777, &blob).ok()) << "cut at " << cut;
    EXPECT_EQ(blob, "post-crash");
    again.reset();
    // Restore the full file for the next truncation point.
    std::ofstream restore(active, std::ios::binary | std::ios::trunc);
    restore.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
}

TEST_F(CheckpointStoreTest, CorruptActiveTailDropsOnlyTheTail) {
  {
    auto store = MustOpen(SmallSegments(1 << 20));
    ASSERT_TRUE(store->Put(1, Blob(1)).ok());
    ASSERT_TRUE(store->Put(2, Blob(2)).ok());
  }
  const fs::path active = NewestSegmentPath();
  // Flip a byte inside the second record's payload: complete but corrupt.
  const auto size = fs::file_size(active);
  std::fstream f(active, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(static_cast<std::streamoff>(size - 3));
  char c;
  f.seekg(static_cast<std::streamoff>(size - 3));
  f.get(c);
  f.seekp(static_cast<std::streamoff>(size - 3));
  f.put(static_cast<char>(c ^ 0x40));
  f.close();

  auto store = MustOpen(SmallSegments(1 << 20));
  EXPECT_TRUE(store->Contains(1));
  EXPECT_FALSE(store->Contains(2));  // The corrupt tail record is dropped...
  EXPECT_EQ(store->Stats().dropped_tail_records, 1u);
}

TEST_F(CheckpointStoreTest, CorruptSealedSegmentFailsOpen) {
  {
    auto store = MustOpen(SmallSegments(128));
    for (uint64_t k = 0; k < 20; ++k) ASSERT_TRUE(store->Put(k, Blob(k)).ok());
    ASSERT_GT(store->Stats().sealed_segments, 1u);
  }
  // Corrupt a byte in the OLDEST segment — sealed, so damage there is real
  // corruption, not crash debris.
  fs::path oldest;
  for (const auto& e : fs::directory_iterator(dir_)) {
    if (e.path().extension() != ".seg") continue;
    if (oldest.empty() || e.path().filename() < oldest.filename()) {
      oldest = e.path();
    }
  }
  std::fstream f(oldest, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(kCheckpointRecordHeaderSize + 2);
  f.put('\x5a');
  f.close();
  auto store_or = CheckpointStore::Open(dir_, SmallSegments(128));
  EXPECT_FALSE(store_or.ok());
  EXPECT_EQ(store_or.status().code(), StatusCode::kDecodeFailure);
}

// Every disk write must route through the injected FileSystem: a store
// opened over the in-memory fault filesystem works end to end while the
// real directory never materializes. Any write path still on stdio or
// std::filesystem would show up as a real file here.
TEST_F(CheckpointStoreTest, AllIoRoutesThroughInjectedFileSystem) {
  FaultInjectingFileSystem ffs;
  CheckpointStoreOptions o = SmallSegments();
  o.file_system = &ffs;
  auto store = MustOpen(o);
  for (uint64_t k = 0; k < 30; ++k) ASSERT_TRUE(store->Put(k, Blob(k)).ok());
  ASSERT_TRUE(store->Delete(7).ok());
  ASSERT_TRUE(store->Compact().ok());
  std::string blob;
  ASSERT_TRUE(store->Get(3, &blob).ok());
  EXPECT_EQ(blob, Blob(3));
  store.reset();

  EXPECT_FALSE(fs::exists(dir_));  // No real I/O happened.

  auto reopened = MustOpen(o);
  EXPECT_EQ(reopened->Keys().size(), 29u);
  EXPECT_FALSE(reopened->Contains(7));
}

// The sync_mode knob is honored: kFull syncs on every acked mutation (and
// the MANIFEST installs sync the directory); kNone never syncs anything.
TEST_F(CheckpointStoreTest, SyncModeKnobControlsFsyncs) {
  FaultInjectingFileSystem full_fs;
  {
    CheckpointStoreOptions o = SmallSegments();
    o.file_system = &full_fs;
    o.sync_mode = SyncMode::kFull;
    auto store = MustOpen(o);
    for (uint64_t k = 0; k < 10; ++k) ASSERT_TRUE(store->Put(k, Blob(k)).ok());
  }
  EXPECT_GE(full_fs.file_sync_count(), 10u);  // At least one per acked Put.
  EXPECT_GE(full_fs.dir_sync_count(), 1u);

  FaultInjectingFileSystem none_fs;
  {
    CheckpointStoreOptions o = SmallSegments();
    o.file_system = &none_fs;
    o.sync_mode = SyncMode::kNone;
    auto store = MustOpen(o);
    for (uint64_t k = 0; k < 10; ++k) ASSERT_TRUE(store->Put(k, Blob(k)).ok());
  }
  EXPECT_EQ(none_fs.file_sync_count(), 0u);
  EXPECT_EQ(none_fs.dir_sync_count(), 0u);
}

// In-memory filesystem on which the background compactor's output segment
// cannot be created: a NewWritableFile from any thread but the one that built
// the filesystem stalls until FailStalledCompaction(), then fails.
class StallingCompactionFs : public FaultInjectingFileSystem {
 public:
  StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override {
    if (std::this_thread::get_id() == owner_) {
      return FaultInjectingFileSystem::NewWritableFile(path);
    }
    if (!stalled_.exchange(true)) stalled_promise_.set_value();
    release_.wait();
    return Status::Internal("injected: compaction output cannot be created");
  }

  bool WaitUntilCompactionStalls(std::chrono::seconds deadline) {
    return stalled_future_.wait_for(deadline) == std::future_status::ready;
  }
  void FailStalledCompaction() { release_promise_.set_value(); }

 private:
  const std::thread::id owner_ = std::this_thread::get_id();
  std::atomic<bool> stalled_{false};
  std::promise<void> stalled_promise_;
  std::future<void> stalled_future_ = stalled_promise_.get_future();
  std::promise<void> release_promise_;
  std::shared_future<void> release_ = release_promise_.get_future().share();
};

// The destructor's stop request can land while a background compaction pass
// runs, when nobody waits on the wake-up signal. If that pass then fails, the
// background thread must still see the request: parking on the signal instead
// would leave ~CheckpointStore joining it forever.
TEST_F(CheckpointStoreTest, DestructionDuringFailingCompactionReturns) {
  // Both leak if destruction hangs: the stuck threads still use them.
  auto* ffs = new StallingCompactionFs;
  CheckpointStoreOptions o = SmallSegments();
  o.file_system = ffs;
  o.background_compaction = true;
  o.compaction_trigger = 2;
  CheckpointStore* store = MustOpen(o).release();
  for (uint64_t k = 0; k < 30; ++k) ASSERT_TRUE(store->Put(k, Blob(k)).ok());
  ASSERT_TRUE(ffs->WaitUntilCompactionStalls(std::chrono::seconds(30)));

  auto destroyed = std::make_shared<std::promise<void>>();
  std::future<void> destroyed_future = destroyed->get_future();
  std::thread destroyer([store, destroyed] {
    delete store;
    destroyed->set_value();
  });
  // Give the destructor time to post its stop request while the pass is
  // stalled, then let the pass fail.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ffs->FailStalledCompaction();
  if (destroyed_future.wait_for(std::chrono::seconds(10)) !=
      std::future_status::ready) {
    // A hung destructor cannot be joined; detaching lets the rest of the
    // suite run and report.
    destroyer.detach();
    FAIL() << "~CheckpointStore did not return after a failed compaction";
  }
  destroyer.join();
  delete ffs;
}

TEST_F(CheckpointStoreTest, SegmentsWithoutManifestRefused) {
  fs::create_directories(dir_);
  std::ofstream(dir_ + "/000001.seg").put('x');
  auto store_or = CheckpointStore::Open(dir_, SmallSegments());
  EXPECT_FALSE(store_or.ok());
  EXPECT_EQ(store_or.status().code(), StatusCode::kFailedPrecondition);
}

// The three compaction crash points. After each simulated kill the next
// Open must land on exactly the pre-compaction contents (no loss, no
// resurrection) and sweep all debris.
class CompactionCrashTest
    : public CheckpointStoreTest,
      public testing::WithParamInterface<CheckpointStore::CompactionCrashPoint> {};

TEST_P(CompactionCrashTest, RecoversAllEntriesAndSweepsDebris) {
  auto store = MustOpen(SmallSegments());
  for (uint64_t k = 0; k < 40; ++k) ASSERT_TRUE(store->Put(k, Blob(k)).ok());
  for (uint64_t k = 0; k < 40; k += 4) {
    ASSERT_TRUE(store->Put(k, Blob(k + 500)).ok());
  }
  ASSERT_TRUE(store->Delete(39).ok());
  ASSERT_GT(store->Stats().sealed_segments, 2u);

  store->set_crash_point_for_testing(GetParam());
  ASSERT_TRUE(store->Compact().ok());
  store.reset();  // "Kill": drop the in-memory store with files as-is.

  auto recovered = MustOpen(SmallSegments());
  EXPECT_EQ(recovered->Keys().size(), 39u);
  std::string blob;
  for (uint64_t k = 0; k < 39; ++k) {
    ASSERT_TRUE(recovered->Get(k, &blob).ok()) << "key " << k;
    EXPECT_EQ(blob, k % 4 == 0 ? Blob(k + 500) : Blob(k)) << "key " << k;
  }
  EXPECT_FALSE(recovered->Contains(39));
  // Debris swept: no temp files, and every on-disk segment is live.
  for (const auto& e : fs::directory_iterator(dir_)) {
    EXPECT_NE(e.path().extension(), ".tmp") << e.path();
  }
  EXPECT_EQ(SegmentFilesOnDisk(), recovered->Stats().live_segments);

  // The store stays fully functional: compaction converges after recovery.
  ASSERT_TRUE(recovered->Compact().ok());
  EXPECT_EQ(recovered->Stats().sealed_segments, 1u);
  ASSERT_TRUE(recovered->Put(1000, "after").ok());
  EXPECT_EQ(recovered->Keys().size(), 40u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPhases, CompactionCrashTest,
    testing::Values(
        CheckpointStore::CompactionCrashPoint::kAfterConsolidatedSegment,
        CheckpointStore::CompactionCrashPoint::kAfterTempManifest,
        CheckpointStore::CompactionCrashPoint::kAfterManifestInstall));

}  // namespace
}  // namespace ldphh
