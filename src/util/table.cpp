#include "util/table.h"

#include <algorithm>
#include <sstream>

namespace autopipe::util {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::add_row(std::vector<std::string> cells) {
  cells.resize(header_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::fmt(double value, int precision) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << value;
  return os.str();
}

std::string Table::to_ascii() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }

  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    os << "|";
    for (std::size_t c = 0; c < header_.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : header_[c];
      os << ' ' << cell << std::string(width[c] - cell.size(), ' ') << " |";
    }
    os << '\n';
  };
  auto emit_rule = [&] {
    os << "+";
    for (std::size_t c = 0; c < header_.size(); ++c) {
      os << std::string(width[c] + 2, '-') << '+';
    }
    os << '\n';
  };

  emit_rule();
  emit_row(header_);
  emit_rule();
  for (const auto& row : rows_) emit_row(row);
  emit_rule();
  return os.str();
}

}  // namespace autopipe::util
