#include "ckpt/storage.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

namespace autopipe::ckpt {

namespace fs = std::filesystem;

namespace {

[[noreturn]] void fail(const std::string& op, const std::string& path,
                       const std::string& detail) {
  throw StorageError(op + " " + path + ": " + detail);
}

void fsync_or_throw(const std::string& path, int open_flags) {
  const int fd = ::open(path.c_str(), open_flags);
  if (fd < 0) fail("fsync-open", path, std::strerror(errno));
  const bool ok = ::fsync(fd) == 0;
  const int err = errno;
  ::close(fd);
  if (!ok) fail("fsync", path, std::strerror(err));
}

}  // namespace

// ------------------------------------------------------------ PosixStorage

void PosixStorage::create_dirs(const std::string& path) {
  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec) fail("mkdir", path, ec.message());
}

void PosixStorage::write_file(const std::string& path, std::string bytes) {
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) fail("open", path, "cannot open for writing");
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) fail("write", path, "short write");
  }
  fsync_or_throw(path, O_WRONLY);
}

void PosixStorage::rename_file(const std::string& from, const std::string& to) {
  if (std::rename(from.c_str(), to.c_str()) != 0) {
    fail("rename", from + " -> " + to, std::strerror(errno));
  }
  // Make the rename durable: fsync the containing directory (best-effort;
  // some filesystems reject directory fsync but order metadata anyway).
  const auto slash = to.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : (slash == 0 ? "/" : to.substr(0, slash));
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

std::string PosixStorage::read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("open", path, "cannot open for reading");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) fail("read", path, "read error");
  return buffer.str();
}

bool PosixStorage::exists(const std::string& path) {
  std::error_code ec;
  return fs::exists(path, ec);
}

std::vector<std::string> PosixStorage::list_dir(const std::string& dir) {
  std::vector<std::string> out;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) return out;
  for (const auto& entry : it) {
    out.push_back(entry.path().filename().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

void PosixStorage::remove_file(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
}

void PosixStorage::remove_dir(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
}

// -------------------------------------------------------------- MemStorage

std::vector<std::pair<std::string, std::string>>::iterator MemStorage::find(
    const std::string& path) {
  return std::find_if(files_.begin(), files_.end(),
                      [&](const auto& f) { return f.first == path; });
}

void MemStorage::create_dirs(const std::string& path) {
  // Record the directory and every ancestor.
  std::string p = path;
  while (!p.empty() && p != "/" && p != ".") {
    const auto it = std::lower_bound(dirs_.begin(), dirs_.end(), p);
    if (it == dirs_.end() || *it != p) dirs_.insert(it, p);
    const auto slash = p.find_last_of('/');
    if (slash == std::string::npos || slash == 0) break;
    p = p.substr(0, slash);
  }
}

void MemStorage::write_file(const std::string& path, std::string bytes) {
  const auto it = find(path);
  if (it != files_.end()) {
    it->second = std::move(bytes);
    return;
  }
  const auto pos = std::lower_bound(
      files_.begin(), files_.end(), path,
      [](const auto& f, const std::string& p) { return f.first < p; });
  files_.insert(pos, {path, std::move(bytes)});
}

void MemStorage::rename_file(const std::string& from, const std::string& to) {
  const auto it = find(from);
  if (it == files_.end()) fail("rename", from, "no such file");
  std::string bytes = std::move(it->second);
  files_.erase(it);
  write_file(to, std::move(bytes));
}

std::string MemStorage::read_file(const std::string& path) {
  const auto it = find(path);
  if (it == files_.end()) fail("open", path, "no such file");
  return it->second;
}

bool MemStorage::exists(const std::string& path) {
  if (find(path) != files_.end()) return true;
  return std::binary_search(dirs_.begin(), dirs_.end(), path);
}

std::vector<std::string> MemStorage::list_dir(const std::string& dir) {
  std::vector<std::string> out;
  const std::string prefix = dir.empty() || dir.back() == '/' ? dir : dir + "/";
  auto note = [&](const std::string& path) {
    if (path.rfind(prefix, 0) != 0) return;
    const std::string rest = path.substr(prefix.size());
    if (rest.empty()) return;
    const auto slash = rest.find('/');
    const std::string name =
        slash == std::string::npos ? rest : rest.substr(0, slash);
    if (std::find(out.begin(), out.end(), name) == out.end()) {
      out.push_back(name);
    }
  };
  for (const auto& f : files_) note(f.first);
  for (const auto& d : dirs_) note(d);
  std::sort(out.begin(), out.end());
  return out;
}

void MemStorage::remove_file(const std::string& path) {
  const auto it = find(path);
  if (it != files_.end()) files_.erase(it);
}

void MemStorage::remove_dir(const std::string& path) {
  const auto it = std::lower_bound(dirs_.begin(), dirs_.end(), path);
  if (it != dirs_.end() && *it == path) dirs_.erase(it);
}

bool MemStorage::has_file(const std::string& path) const {
  return std::any_of(files_.begin(), files_.end(),
                     [&](const auto& f) { return f.first == path; });
}

std::string& MemStorage::bytes(const std::string& path) {
  const auto it = find(path);
  if (it == files_.end()) fail("bytes", path, "no such file");
  return it->second;
}

// ------------------------------------------------------------ atomic_write

void atomic_write(Storage& storage, const std::string& path,
                  std::string bytes) {
  const std::string tmp = path + ".tmp";
  storage.write_file(tmp, std::move(bytes));  // durable but tearable
  storage.rename_file(tmp, path);  // the commit point
}

}  // namespace autopipe::ckpt
