// Console tables for the benchmark harnesses and example CLIs.
//
// Table collects cells as strings and renders an aligned ASCII table.
#pragma once

#include <string>
#include <vector>

namespace autopipe::util {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Appends a row; shorter rows are padded with empty cells.
  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with the given precision.
  static std::string fmt(double value, int precision = 1);

  std::string to_ascii() const;

  std::size_t rows() const { return rows_.size(); }
  std::size_t columns() const { return header_.size(); }
  const std::vector<std::string>& row(std::size_t i) const { return rows_[i]; }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace autopipe::util
