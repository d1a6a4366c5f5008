// The one bench result writer.  Every bench/* binary and lds_store_bench
// emit their machine-readable results through it, so every BENCH_*.json
// file has the same row shape.  Kept free of lds headers so tools/ can use
// it without the bench helpers.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

namespace lds::bench {

/// Machine-readable bench results.  Construct from argv (recognizes
/// `--json <path>`, ignores everything else so benches stay zero-config),
/// call add() once per measured quantity, and the destructor writes
///
///   {"bench":"<name>","results":[
///     {"name":"<name>","params":"n=10 backend=mbr",
///      "metric":"write_cost_normalized","value":12.5}, ...]}
///
/// No file is written when --json was not passed.
class JsonReporter {
 public:
  JsonReporter(int argc, char** argv, std::string bench_name)
      : name_(std::move(bench_name)) {
    for (int i = 1; i < argc; ++i) {
      if (std::string_view(argv[i]) != "--json") continue;
      if (i + 1 >= argc || argv[i + 1][0] == '-') {
        std::fprintf(stderr, "bench: --json needs a path argument\n");
        std::exit(2);
      }
      path_ = argv[i + 1];
    }
  }

  void add(const std::string& params, const std::string& metric,
           double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    rows_.push_back("{\"name\":\"" + name_ + "\",\"params\":\"" + params +
                    "\",\"metric\":\"" + metric + "\",\"value\":" + buf +
                    "}");
  }

  ~JsonReporter() {
    if (path_.empty()) return;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path_.c_str());
      return;
    }
    std::fputs(("{\"bench\":\"" + name_ + "\",\"results\":[").c_str(), f);
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (i > 0) std::fputc(',', f);
      std::fputs(rows_[i].c_str(), f);
    }
    std::fputs("]}\n", f);
    std::fclose(f);
  }

 private:
  std::string name_;
  std::string path_;
  std::vector<std::string> rows_;
};

}  // namespace lds::bench
