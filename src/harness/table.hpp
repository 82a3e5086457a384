// Fixed-width table printer for the benchmark binaries in bench/, which
// print their sweeps as rows on stdout before the timed benchmarks run.

#pragma once

#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

namespace mnm::harness {

class Table {
 public:
  explicit Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

  Table& row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
    return *this;
  }

  void print(std::ostream& os = std::cout) const {
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
    for (const auto& r : rows_) {
      for (std::size_t i = 0; i < r.size() && i < widths.size(); ++i) {
        widths[i] = std::max(widths[i], r[i].size());
      }
    }
    const auto line = [&] {
      os << '+';
      for (std::size_t w : widths) os << std::string(w + 2, '-') << '+';
      os << '\n';
    };
    const auto print_row = [&](const std::vector<std::string>& cells) {
      os << '|';
      for (std::size_t i = 0; i < widths.size(); ++i) {
        const std::string& c = i < cells.size() ? cells[i] : std::string{};
        os << ' ' << std::left << std::setw(static_cast<int>(widths[i])) << c
           << " |";
      }
      os << '\n';
    };
    line();
    print_row(headers_);
    line();
    for (const auto& r : rows_) print_row(r);
    line();
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace mnm::harness
