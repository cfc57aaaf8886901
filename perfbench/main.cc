// Copyright 2026 The skewsearch Authors.
// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload search|search-frozen|ingest|join --seed N
//             --seconds S --trace 0|1 [--workdir DIR]
//   perfbench --list-metrics
//
// The last line of stdout is the JSON result; see perfbench/README.md.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "harness.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload search|search-frozen|ingest|join "
               "--seed N --seconds S --trace 0|1 [--workdir DIR]\n"
               "       perfbench --list-metrics\n");
  return 2;
}

bool ParseUint(const char* text, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      for (const auto& m : perfbench::EndToEndMetrics()) {
        std::printf("end_to_end %s %s\n", m.name, m.unit);
      }
      for (const auto& m : perfbench::PerLayerMetrics()) {
        std::printf("per_layer %s %s\n", m.name, m.unit);
      }
      return 0;
    }
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed" && ParseUint(value, &number)) {
      args.seed = number;
    } else if (flag == "--seconds" && ParseUint(value, &number) && number > 0) {
      args.seconds = static_cast<double>(number);
    } else if (flag == "--trace" && ParseUint(value, &number) && number <= 1) {
      args.trace = number == 1;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      return Usage();
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", args.workdir.c_str(),
                 ec.message().c_str());
    return 2;
  }
  if (args.workload == "search") return perfbench::RunSearch(args, false);
  if (args.workload == "search-frozen") return perfbench::RunSearch(args, true);
  if (args.workload == "ingest") return perfbench::RunIngest(args);
  if (args.workload == "join") return perfbench::RunJoin(args);
  return Usage();
}
