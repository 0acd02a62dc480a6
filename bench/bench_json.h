// Machine-readable run summaries for the experiment harnesses.
//
// Every fig*/table* binary prints a human table and, through RunSummary,
// mirrors the same numbers to BENCH_<name>.json so CI and the driver's
// benchmark gate can diff runs without scraping stdout. The schema is
// deliberately flat: {bench, paper, rows: [{column: value, ...}, ...]}.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "obs/json.h"

namespace repro::bench {

class RunSummary {
 public:
  using Value = std::variant<std::int64_t, std::uint64_t, double,
                             std::string, bool>;

  RunSummary(std::string name, std::string paper_ref)
      : name_(std::move(name)), paper_(std::move(paper_ref)) {}

  /// Starts a new result row; subsequent set() calls land in it.
  RunSummary& row() {
    rows_.emplace_back();
    return *this;
  }

  RunSummary& set(const std::string& key, Value v) {
    rows_.back().emplace_back(key, std::move(v));
    return *this;
  }

  std::size_t rows_count() const { return rows_.size(); }

  /// Writes BENCH_<name>.json in the working directory (where CI collects
  /// artifacts from). Returns false, after saying so on stderr, on I/O
  /// failure; benches then exit non-zero, so a smoke that passes has
  /// written its summary.
  bool write() const { return write_to("BENCH_" + name_ + ".json"); }

  bool write_to(const std::string& path) const {
    std::ofstream os(path, std::ios::trunc);
    obs::JsonWriter w(os);
    w.begin_object();
    w.key("bench").value(name_);
    w.key("paper").value(paper_);
    w.key("rows").begin_array();
    for (const auto& row : rows_) {
      w.begin_object();
      for (const auto& [k, v] : row) {
        w.key(k);
        std::visit([&w](const auto& x) { w.value(x); }, v);
      }
      w.end_object();
    }
    w.end_array();
    w.end_object();
    os << "\n";
    if (!os) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return false;
    }
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::string name_;
  std::string paper_;
  std::vector<std::vector<std::pair<std::string, Value>>> rows_;
};

}  // namespace repro::bench
