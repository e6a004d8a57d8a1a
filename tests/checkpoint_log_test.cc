// Tests for src/server/checkpoint_log: CRC-guarded append-only records.

#include "src/server/checkpoint_log.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "src/common/fault_fs.h"

namespace ldphh {
namespace {

// Three distinct tags from the free range: the log stores the tag byte
// verbatim and never interprets it.
constexpr CheckpointRecordType kTagA = CheckpointRecordType::kCustom;
constexpr CheckpointRecordType kTagB = static_cast<CheckpointRecordType>(129);
constexpr CheckpointRecordType kTagC = static_cast<CheckpointRecordType>(130);

std::string TempLogPath(const std::string& name) {
  return testing::TempDir() + "/ldphh_" + name + "_" +
         std::to_string(::getpid()) + ".log";
}

class CheckpointLogTest : public testing::Test {
 protected:
  void TearDown() override {
    if (!path_.empty()) std::remove(path_.c_str());
  }
  std::string path_;
};

// Pins the error propagation [[nodiscard]] Status now enforces at compile
// time: a failed fsync in the durability path must surface to the caller —
// a checkpoint is only declared durable on a Sync() that really succeeded —
// and the writer must heal once the fault clears.
TEST_F(CheckpointLogTest, SyncFailurePropagatesAndHeals) {
  FaultInjectingFileSystem fs;
  CheckpointWriter writer;
  ASSERT_TRUE(writer.Open("/fault/sync.ckpt", &fs).ok());
  ASSERT_TRUE(writer.Append(kTagA, "m").ok());
  fs.set_fail_file_syncs(true);
  const Status failed = writer.Sync();
  EXPECT_FALSE(failed.ok());
  fs.set_fail_file_syncs(false);
  EXPECT_TRUE(writer.Sync().ok());
  EXPECT_TRUE(writer.Close().ok());
}

// The group-commit building blocks: EncodeRecord must produce exactly the
// bytes Append writes (a reader cannot tell them apart), and a sync failure
// after AppendEncoded propagates and heals like any other — the batch is
// only durable on a Sync() that really succeeded.
TEST_F(CheckpointLogTest, EncodeRecordMatchesAppendByteForByte) {
  const std::string payloads[] = {"manifest", "", std::string(3000, 'x')};
  path_ = TempLogPath("appended");
  const std::string encoded_path = TempLogPath("encoded");
  {
    CheckpointWriter writer;
    ASSERT_TRUE(writer.Open(path_).ok());
    ASSERT_TRUE(writer.Append(kTagA, payloads[0]).ok());
    ASSERT_TRUE(writer.Append(kTagB, payloads[1]).ok());
    ASSERT_TRUE(writer.Append(kTagC, payloads[2]).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  {
    std::string batch;
    ASSERT_TRUE(
        CheckpointWriter::EncodeRecord(kTagA, payloads[0], &batch).ok());
    ASSERT_TRUE(
        CheckpointWriter::EncodeRecord(kTagB, payloads[1], &batch).ok());
    ASSERT_TRUE(
        CheckpointWriter::EncodeRecord(kTagC, payloads[2], &batch).ok());
    CheckpointWriter writer;
    ASSERT_TRUE(writer.Open(encoded_path).ok());
    ASSERT_TRUE(writer.AppendEncoded(batch, 3).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  const auto slurp = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  EXPECT_EQ(slurp(path_), slurp(encoded_path));
  std::remove(encoded_path.c_str());

  // And the batch reads back as three ordinary records.
  CheckpointReader reader;
  ASSERT_TRUE(reader.Open(path_).ok());
  CheckpointRecordType type;
  std::string payload;
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(reader.Read(&type, &payload).ok()) << "record " << i;
    EXPECT_EQ(payload, payloads[i]) << "record " << i;
  }
  EXPECT_EQ(reader.Read(&type, &payload).code(), StatusCode::kOutOfRange);
}

TEST_F(CheckpointLogTest, AppendEncodedSyncFailurePropagatesAndHeals) {
  FaultInjectingFileSystem fs;
  CheckpointWriter writer;
  ASSERT_TRUE(writer.Open("/fault/batch.ckpt", &fs).ok());
  std::string batch;
  ASSERT_TRUE(CheckpointWriter::EncodeRecord(kTagA, "grouped", &batch).ok());
  ASSERT_TRUE(writer.AppendEncoded(batch, 1).ok());
  fs.set_fail_file_syncs(true);
  EXPECT_FALSE(writer.Sync().ok());  // The batch is NOT durable.
  fs.set_fail_file_syncs(false);
  EXPECT_TRUE(writer.Sync().ok());  // Heals: now it is.
  EXPECT_TRUE(writer.Close().ok());
  CheckpointReader reader;
  ASSERT_TRUE(reader.Open("/fault/batch.ckpt", &fs).ok());
  CheckpointRecordType type;
  std::string payload;
  ASSERT_TRUE(reader.Read(&type, &payload).ok());
  EXPECT_EQ(payload, "grouped");
}

TEST_F(CheckpointLogTest, RoundTripsRecords) {
  path_ = TempLogPath("roundtrip");
  CheckpointWriter writer;
  ASSERT_TRUE(writer.Open(path_).ok());
  ASSERT_TRUE(writer.Append(kTagA, "manifest").ok());
  ASSERT_TRUE(writer.Append(kTagB, "").ok());
  std::string big(100000, 'x');
  big[5] = '\0';  // Binary-safe.
  ASSERT_TRUE(writer.Append(kTagC, big).ok());
  ASSERT_TRUE(writer.Close().ok());

  CheckpointReader reader;
  ASSERT_TRUE(reader.Open(path_).ok());
  CheckpointRecordType type;
  std::string payload;
  ASSERT_TRUE(reader.Read(&type, &payload).ok());
  EXPECT_EQ(type, kTagA);
  EXPECT_EQ(payload, "manifest");
  ASSERT_TRUE(reader.Read(&type, &payload).ok());
  EXPECT_EQ(type, kTagB);
  EXPECT_TRUE(payload.empty());
  ASSERT_TRUE(reader.Read(&type, &payload).ok());
  EXPECT_EQ(type, kTagC);
  EXPECT_EQ(payload, big);
  EXPECT_EQ(reader.Read(&type, &payload).code(), StatusCode::kOutOfRange);
}

TEST_F(CheckpointLogTest, ReopenAppends) {
  path_ = TempLogPath("reopen");
  {
    CheckpointWriter writer;
    ASSERT_TRUE(writer.Open(path_).ok());
    ASSERT_TRUE(writer.Append(kTagA, "one").ok());
  }
  {
    CheckpointWriter writer;
    ASSERT_TRUE(writer.Open(path_).ok());
    ASSERT_TRUE(writer.Append(kTagA, "two").ok());
  }
  CheckpointReader reader;
  ASSERT_TRUE(reader.Open(path_).ok());
  CheckpointRecordType type;
  std::string payload;
  ASSERT_TRUE(reader.Read(&type, &payload).ok());
  EXPECT_EQ(payload, "one");
  ASSERT_TRUE(reader.Read(&type, &payload).ok());
  EXPECT_EQ(payload, "two");
}

TEST_F(CheckpointLogTest, TruncatedTailReadsAsEndOfLog) {
  path_ = TempLogPath("truncated");
  {
    CheckpointWriter writer;
    ASSERT_TRUE(writer.Open(path_).ok());
    ASSERT_TRUE(writer.Append(kTagA, "full").ok());
    ASSERT_TRUE(writer.Append(kTagB, "will be torn").ok());
  }
  // Simulate a crash mid-append: chop bytes off the end. Every truncation
  // point must still yield the first record and then a clean end-of-log.
  std::ifstream in(path_, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  const size_t first_record_size = kCheckpointRecordHeaderSize + 4;
  for (size_t cut = first_record_size; cut < bytes.size(); ++cut) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(cut));
    out.close();

    CheckpointReader reader;
    ASSERT_TRUE(reader.Open(path_).ok());
    CheckpointRecordType type;
    std::string payload;
    ASSERT_TRUE(reader.Read(&type, &payload).ok()) << "cut at " << cut;
    EXPECT_EQ(payload, "full");
    EXPECT_EQ(reader.Read(&type, &payload).code(), StatusCode::kOutOfRange)
        << "cut at " << cut;
  }
}

TEST_F(CheckpointLogTest, CorruptRecordFailsWithDecodeFailure) {
  path_ = TempLogPath("corrupt");
  {
    CheckpointWriter writer;
    ASSERT_TRUE(writer.Open(path_).ok());
    ASSERT_TRUE(writer.Append(kTagA, "payload").ok());
  }
  std::ifstream in(path_, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  // Flip a payload byte (and separately the type byte): CRC must object.
  for (size_t pos : {kCheckpointRecordHeaderSize - 1, kCheckpointRecordHeaderSize}) {
    std::string bad = bytes;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x20);
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bad.data(), static_cast<std::streamsize>(bad.size()));
    out.close();

    CheckpointReader reader;
    ASSERT_TRUE(reader.Open(path_).ok());
    CheckpointRecordType type;
    std::string payload;
    EXPECT_EQ(reader.Read(&type, &payload).code(), StatusCode::kDecodeFailure)
        << "flipped byte " << pos;
  }
}

TEST_F(CheckpointLogTest, HugeCorruptLengthReadsAsEndOfLogWithoutAllocating) {
  path_ = TempLogPath("hugelen");
  {
    CheckpointWriter writer;
    ASSERT_TRUE(writer.Open(path_).ok());
    ASSERT_TRUE(writer.Append(kTagA, "ok").ok());
    ASSERT_TRUE(writer.Append(kTagC, "victim").ok());
  }
  // Corrupt the second record's length field (bytes 4..7 of its header) to
  // 0xfffffff0: the reader must not attempt a ~4 GB resize, and must stop
  // cleanly after the first record.
  std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
  const std::streamoff second_header =
      static_cast<std::streamoff>(kCheckpointRecordHeaderSize + 2);
  f.seekp(second_header + 4);
  const char huge[4] = {'\xf0', '\xff', '\xff', '\xff'};
  f.write(huge, 4);
  f.close();

  CheckpointReader reader;
  ASSERT_TRUE(reader.Open(path_).ok());
  CheckpointRecordType type;
  std::string payload;
  ASSERT_TRUE(reader.Read(&type, &payload).ok());
  EXPECT_EQ(payload, "ok");
  EXPECT_EQ(reader.Read(&type, &payload).code(), StatusCode::kOutOfRange);
}

TEST_F(CheckpointLogTest, OpenMissingFileFails) {
  CheckpointReader reader;
  EXPECT_FALSE(reader.Open("/nonexistent/dir/nothing.log").ok());
}

// Regression (ISSUE 3): a record acked by Sync() must survive power loss —
// before the fix, Sync was only fflush, so an OS crash could lose a
// checkpoint the caller had already declared durable. The unsynced tail
// may vanish *or* tear at any byte; recovery must be exact on acked
// records and clean about the rest.
TEST_F(CheckpointLogTest, SyncedRecordSurvivesPowerLossWithTornUnsyncedTail) {
  const std::string path = "/faultfs/checkpoint.log";
  // Size of the unsynced second record, swept over all torn-tail lengths.
  const std::string in_flight = "in flight!!";
  const size_t torn_size = kCheckpointRecordHeaderSize + in_flight.size();
  for (size_t keep = 0; keep <= torn_size; ++keep) {
    FaultInjectingFileSystem fs;
    {
      CheckpointWriter writer;
      ASSERT_TRUE(writer.Open(path, &fs, SyncMode::kFull).ok());
      ASSERT_TRUE(writer.Append(kTagA, "acked").ok());
      ASSERT_TRUE(writer.Sync().ok());  // Acknowledged: durable from here.
      ASSERT_TRUE(writer.Append(kTagB, in_flight).ok());
      ASSERT_TRUE(writer.Flush().ok());  // To the OS — NOT durable.
    }
    EXPECT_GE(fs.file_sync_count(), 1u) << "keep " << keep;
    EXPECT_GE(fs.dir_sync_count(), 1u)  // Created file's entry synced too.
        << "keep " << keep;
    fs.SimulatePowerLoss(keep);

    CheckpointReader reader;
    ASSERT_TRUE(reader.Open(path, &fs).ok()) << "keep " << keep;
    CheckpointRecordType type;
    std::string payload;
    ASSERT_TRUE(reader.Read(&type, &payload).ok()) << "keep " << keep;
    EXPECT_EQ(payload, "acked");
    const Status tail = reader.Read(&type, &payload);
    if (keep == torn_size) {
      // The whole in-flight record happened to reach the platter: reading
      // it back complete is fine (it was simply never acknowledged).
      EXPECT_TRUE(tail.ok()) << tail.ToString();
      EXPECT_EQ(payload, in_flight);
    } else {
      EXPECT_EQ(tail.code(), StatusCode::kOutOfRange) << "keep " << keep;
    }
  }
}

// Under SyncMode::kNone, Sync degrades to Flush: the old process-crash
// contract, with zero fsyncs issued.
TEST_F(CheckpointLogTest, SyncModeNoneNeverSyncs) {
  FaultInjectingFileSystem fs;
  CheckpointWriter writer;
  ASSERT_TRUE(writer.Open("/faultfs/nosync.log", &fs, SyncMode::kNone).ok());
  ASSERT_TRUE(writer.Append(kTagA, "x").ok());
  ASSERT_TRUE(writer.Sync().ok());
  ASSERT_TRUE(writer.Close().ok());
  EXPECT_EQ(fs.file_sync_count(), 0u);
  EXPECT_EQ(fs.dir_sync_count(), 0u);
}

}  // namespace
}  // namespace ldphh
