// Storage abstraction under the checkpoint subsystem (DESIGN.md §7).
//
// CheckpointWriter/Reader never touch the filesystem directly; they speak
// this narrow primitive interface so that
//   * PosixStorage gives real durable checkpoints (fsync'd files, atomic
//     rename) in production and the examples,
//   * MemStorage gives hermetic, fast unit tests, and
//   * faults::FaultyStorage (faults/storage_faults.h) wraps either one to
//     inject torn writes, bit flips, short reads and rename failures
//     deterministically -- every crash-consistency claim is testable.
//
// All paths are '/'-separated strings. Primitive failures throw
// StorageError; the checkpoint layer translates what it can into typed
// ckpt::CkptError and otherwise lets the caller decide (a failed checkpoint
// write must never kill training).
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

namespace autopipe::ckpt {

/// I/O failure at the primitive layer: real (errno) or injected by the
/// storage-fault plan. The failed operation had no effect beyond what the
/// message describes (a torn write names the bytes that did land).
class StorageError : public std::runtime_error {
 public:
  explicit StorageError(const std::string& what) : std::runtime_error(what) {}
};

class Storage {
 public:
  virtual ~Storage() = default;

  /// mkdir -p. Idempotent.
  virtual void create_dirs(const std::string& path) = 0;
  /// Creates/truncates `path` with `bytes` and makes it durable (fsync on
  /// the POSIX backend). NOT atomic -- a crash mid-call can leave a torn
  /// file, which is exactly why the writer only targets temp names here.
  /// The buffer is taken by value: the checkpoint writer moves each record
  /// in, and a backend that keeps the bytes (MemStorage) keeps that buffer.
  virtual void write_file(const std::string& path, std::string bytes) = 0;
  /// Atomic replace (POSIX rename semantics): after return, `to` is the new
  /// file; on a crash before return, `to` is untouched.
  virtual void rename_file(const std::string& from, const std::string& to) = 0;
  /// Whole-file read; throws StorageError when absent/unreadable.
  virtual std::string read_file(const std::string& path) = 0;
  virtual bool exists(const std::string& path) = 0;
  /// Immediate children (names, not paths) of a directory, sorted
  /// ascending; empty when the directory does not exist.
  virtual std::vector<std::string> list_dir(const std::string& dir) = 0;
  /// Best-effort removals for retention pruning; missing targets are fine.
  virtual void remove_file(const std::string& path) = 0;
  virtual void remove_dir(const std::string& path) = 0;
};

/// Real filesystem backend: std::filesystem + fsync.
class PosixStorage final : public Storage {
 public:
  void create_dirs(const std::string& path) override;
  void write_file(const std::string& path, std::string bytes) override;
  void rename_file(const std::string& from, const std::string& to) override;
  std::string read_file(const std::string& path) override;
  bool exists(const std::string& path) override;
  std::vector<std::string> list_dir(const std::string& dir) override;
  void remove_file(const std::string& path) override;
  void remove_dir(const std::string& path) override;
};

/// Hermetic in-memory backend for tests: a flat map of path -> bytes plus a
/// directory set. Deterministic listing order (sorted).
class MemStorage final : public Storage {
 public:
  void create_dirs(const std::string& path) override;
  void write_file(const std::string& path, std::string bytes) override;
  void rename_file(const std::string& from, const std::string& to) override;
  std::string read_file(const std::string& path) override;
  bool exists(const std::string& path) override;
  std::vector<std::string> list_dir(const std::string& dir) override;
  void remove_file(const std::string& path) override;
  void remove_dir(const std::string& path) override;

  /// Test hooks: direct access for corrupting / inspecting stored bytes.
  bool has_file(const std::string& path) const;
  std::string& bytes(const std::string& path);

 private:
  std::vector<std::pair<std::string, std::string>>::iterator find(
      const std::string& path);
  std::vector<std::pair<std::string, std::string>> files_;  ///< sorted by path
  std::vector<std::string> dirs_;                           ///< sorted
};

/// The write-to-temp -> fsync -> atomic-rename protocol over any backend:
/// after return, `path` holds `bytes` durably; on a StorageError (real or
/// injected), `path` is untouched (at worst `<path>.tmp` holds a torn copy,
/// which readers never consult).
void atomic_write(Storage& storage, const std::string& path,
                  std::string bytes);

}  // namespace autopipe::ckpt
