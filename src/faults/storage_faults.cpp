#include "faults/storage_faults.h"

#include <algorithm>
#include <string>

#include "util/rng.h"

namespace autopipe::faults {

const StorageFault* FaultyStorage::match(StorageFault::Kind kind,
                                         int index) const {
  for (const StorageFault& f : plan_.faults) {
    if (f.kind == kind && f.op_index == index) return &f;
  }
  return nullptr;
}

void FaultyStorage::create_dirs(const std::string& path) {
  inner_.create_dirs(path);
}

void FaultyStorage::write_file(const std::string& path, std::string bytes) {
  const int op = writes_++;
  if (const StorageFault* f = match(StorageFault::Kind::TornWrite, op)) {
    ++injected_;
    const std::size_t total = bytes.size();
    const std::size_t kept = std::min(f->at_byte, total);
    bytes.resize(kept);
    inner_.write_file(path, std::move(bytes));
    throw ckpt::StorageError("injected torn write to " + path + " (" +
                             std::to_string(kept) + "/" +
                             std::to_string(total) + " bytes landed)");
  }
  if (const StorageFault* f = match(StorageFault::Kind::BitFlip, op)) {
    ++injected_;
    if (!bytes.empty()) bytes[f->at_byte % bytes.size()] ^= 0x01;
    inner_.write_file(path, std::move(bytes));  // lands "successfully"
    return;
  }
  inner_.write_file(path, std::move(bytes));
}

void FaultyStorage::rename_file(const std::string& from,
                                const std::string& to) {
  const int op = renames_++;
  if (match(StorageFault::Kind::RenameFail, op) != nullptr) {
    ++injected_;
    throw ckpt::StorageError("injected rename failure " + from + " -> " + to);
  }
  inner_.rename_file(from, to);
}

std::string FaultyStorage::read_file(const std::string& path) {
  const int op = reads_++;
  std::string bytes = inner_.read_file(path);
  if (const StorageFault* f = match(StorageFault::Kind::ShortRead, op)) {
    ++injected_;
    bytes.resize(std::min(f->at_byte, bytes.size()));
  }
  return bytes;
}

bool FaultyStorage::exists(const std::string& path) {
  return inner_.exists(path);
}

std::vector<std::string> FaultyStorage::list_dir(const std::string& dir) {
  return inner_.list_dir(dir);
}

void FaultyStorage::remove_file(const std::string& path) {
  inner_.remove_file(path);
}

void FaultyStorage::remove_dir(const std::string& path) {
  inner_.remove_dir(path);
}

StorageFaultPlan sample_storage_fault_plan(const StorageFaultDistribution& dist,
                                           int write_ops, int read_ops,
                                           int rename_ops, std::uint64_t seed) {
  util::Rng rng(seed);
  StorageFaultPlan plan;
  auto draw_byte = [&] {
    return static_cast<std::size_t>(
        rng.next_below(static_cast<std::uint64_t>(dist.max_byte) + 1));
  };
  for (int i = 0; i < write_ops; ++i) {
    // At most one fault per write op; torn wins over flip (a write cannot
    // both crash midway and land completely).
    if (rng.next_double() < dist.torn_write_prob) {
      plan.faults.push_back(
          {StorageFault::Kind::TornWrite, i, draw_byte()});
    } else if (rng.next_double() < dist.bit_flip_prob) {
      plan.faults.push_back({StorageFault::Kind::BitFlip, i, draw_byte()});
    }
  }
  for (int i = 0; i < read_ops; ++i) {
    if (rng.next_double() < dist.short_read_prob) {
      plan.faults.push_back({StorageFault::Kind::ShortRead, i, draw_byte()});
    }
  }
  for (int i = 0; i < rename_ops; ++i) {
    if (rng.next_double() < dist.rename_fail_prob) {
      plan.faults.push_back({StorageFault::Kind::RenameFail, i, 0});
    }
  }
  return plan;
}

}  // namespace autopipe::faults
