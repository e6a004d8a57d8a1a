/// \file checkpoint_log.h
/// \brief Append-only checkpoint log with CRC-guarded records.
///
/// The leveldb log-format idiom, simplified to whole records (aggregator
/// state snapshots are small enough not to need block fragmentation):
///
///   record := masked_crc32c(u32, over type+payload) length(u32) type(u8)
///             payload(length bytes)
///
/// A crash mid-append leaves a truncated tail; the reader reports it as a
/// clean end-of-log (`kOutOfRange`), so recovery replays every fully
/// written record. A CRC mismatch on a complete record is real corruption
/// and surfaces as `kDecodeFailure`.
///
/// All I/O goes through the file layer (src/common/file.h): `Sync()` makes
/// acknowledged records power-loss durable per the writer's SyncMode
/// (default kFull — fsync before a checkpoint is declared durable; kNone
/// restores the old flush-to-OS, process-crash-only contract). The first
/// Sync of a newly created log also syncs the parent directory, so the
/// file itself survives the power loss its records do.

#ifndef LDPHH_SERVER_CHECKPOINT_LOG_H_
#define LDPHH_SERVER_CHECKPOINT_LOG_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "src/common/file.h"
#include "src/common/status.h"

namespace ldphh {

/// Record type tags; the log itself is type-agnostic. Tags below kCustom
/// are reserved; the store (src/store/store_format.h) owns 128-130.
enum class CheckpointRecordType : uint8_t {
  kCustom = 128,  ///< First tag free for other subsystems.
};

/// Fixed byte size of the per-record header.
inline constexpr size_t kCheckpointRecordHeaderSize = 4 + 4 + 1;

/// \brief Appends CRC-guarded records to a log file.
class CheckpointWriter {
 public:
  CheckpointWriter() = default;
  ~CheckpointWriter() {
    IgnoreStatus(Close(), "destructor close is best-effort; callers that"
                          " need the result call Close() first");
  }
  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  /// Opens \p path for appending (creates the file if absent) on \p fs
  /// (null = FileSystem::Default()). \p sync_mode is what Sync() applies.
  Status Open(const std::string& path, FileSystem* fs = nullptr,
              SyncMode sync_mode = SyncMode::kFull);

  /// Appends one record; durable only after Sync().
  Status Append(CheckpointRecordType type, std::string_view payload);

  /// Encodes one record (CRC header + payload) into \p out — exactly the
  /// bytes Append would write. The group-commit lane
  /// (src/store/checkpoint_store.h) batch-encodes a whole group of records
  /// into one buffer and hands it to AppendEncoded, so N coalesced writes
  /// cost one file append instead of 2N.
  static Status EncodeRecord(CheckpointRecordType type,
                             std::string_view payload, std::string* out);

  /// Appends pre-encoded record bytes (a concatenation of EncodeRecord
  /// outputs) in a single write. \p record_count is how many records
  /// \p encoded holds (for the append counters only — the bytes are
  /// written as-is either way). Durable only after Sync().
  Status AppendEncoded(std::string_view encoded, uint64_t record_count);

  /// Pushes buffered writes to the OS (process-crash safe only).
  Status Flush();

  /// Flushes, then makes every appended record power-loss durable per the
  /// writer's SyncMode (kNone degrades to Flush). The first Sync of a
  /// created file also syncs the parent directory entry.
  Status Sync();

  /// Flushes and closes; further Append calls fail. Durability still
  /// requires a Sync() before the records are acknowledged.
  Status Close();

  bool is_open() const { return file_ != nullptr; }

 private:
  std::unique_ptr<WritableFile> file_;
  FileSystem* fs_ = nullptr;
  std::string path_;
  SyncMode sync_mode_ = SyncMode::kFull;
  bool dir_sync_pending_ = false;
};

/// \brief Sequentially reads records written by CheckpointWriter.
class CheckpointReader {
 public:
  CheckpointReader() = default;
  ~CheckpointReader() {
    IgnoreStatus(Close(), "read-side close has nothing to lose");
  }
  CheckpointReader(const CheckpointReader&) = delete;
  CheckpointReader& operator=(const CheckpointReader&) = delete;

  /// Opens \p path on \p fs (null = FileSystem::Default()). The reader only
  /// needs the read slice, so a replica's ReadableFileSystem works too.
  Status Open(const std::string& path, ReadableFileSystem* fs = nullptr);

  /// Adopts an already-open file. A replica pins every segment of a
  /// MANIFEST generation by opening them all up front (an open handle
  /// survives the primary deleting the file), then replays at leisure.
  Status Open(std::unique_ptr<SequentialFile> file);

  /// Reads the next record. Returns kOutOfRange at end of log (including a
  /// crash-truncated tail) and kDecodeFailure on CRC corruption.
  Status Read(CheckpointRecordType* type, std::string* payload);

  /// Byte offset of the read cursor — after a successful Read, the end of
  /// that record. Recovery uses this to truncate a damaged tail at the last
  /// clean record boundary. Returns -1 on a closed reader.
  long Tell() const;

  Status Close();

 private:
  std::unique_ptr<SequentialFile> file_;
};

}  // namespace ldphh

#endif  // LDPHH_SERVER_CHECKPOINT_LOG_H_
