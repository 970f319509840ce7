#include "analysis/report.hpp"

#include <cstdio>
#include <fstream>

namespace maps::analysis {

void write_csv(const std::string& path, const std::vector<std::string>& header,
               const std::vector<std::vector<double>>& rows) {
  std::ofstream os(path);
  maps::require(os.good(), "write_csv: cannot open " + path);
  for (std::size_t c = 0; c < header.size(); ++c) {
    os << header[c] << (c + 1 < header.size() ? "," : "\n");
  }
  for (const auto& row : rows) {
    maps::require(row.size() == header.size(), "write_csv: ragged row");
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << row[c] << (c + 1 < row.size() ? "," : "\n");
    }
  }
  os.close();  // flushes the last buffer: check after it, not before
  maps::require(!os.fail(), "write_csv: write failed for " + path);
}

TextTable::TextTable(std::vector<std::string> header) : header_(std::move(header)) {}

void TextTable::add_row(std::vector<std::string> cells) {
  maps::require(cells.size() == header_.size(), "TextTable: column count mismatch");
  rows_.push_back(std::move(cells));
}

std::string TextTable::fmt(double v, int precision) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string TextTable::str() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto emit_row = [&](const std::vector<std::string>& cells) {
    std::string line = "|";
    for (std::size_t c = 0; c < cells.size(); ++c) {
      line += " " + cells[c] + std::string(width[c] - cells[c].size(), ' ') + " |";
    }
    return line + "\n";
  };
  std::string sep = "+";
  for (std::size_t c = 0; c < width.size(); ++c) {
    sep += std::string(width[c] + 2, '-') + "+";
  }
  sep += "\n";
  std::string out = sep + emit_row(header_) + sep;
  for (const auto& row : rows_) out += emit_row(row);
  out += sep;
  return out;
}

}  // namespace maps::analysis
