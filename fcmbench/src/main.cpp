// fcmbench: the repository's end-to-end benchmark program (see ../README.md).
//
//   fcmbench --workload NAME --seed N --seconds S --trace 0|1
//            [--spans PATH] [--smoke]
//
// Prints one line per metric (name, value, unit) and, as the last line, the
// JSON result. Exit status: 0 when every output check passed, 1 when one
// failed, 2 on a usage or runtime error (no result printed).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "harness.h"

namespace {

int usage(const char* message) {
  std::fprintf(stderr,
               "fcmbench: %s\nusage: fcmbench --workload "
               "short_epoch|capture_cached|network_agg "
               "--seed N --seconds S --trace 0|1 [--spans PATH] [--smoke]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fcmbench;
  const std::map<std::string, void (*)(const Config&, Result&)> workloads = {
      {"short_epoch", run_short_epoch},
      {"capture_cached", run_capture_cached},
      {"network_agg", run_network_agg},
  };
  Config config;
  config.span_path = "spans.jsonl";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      config.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return usage("--seed takes an integer");
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(config.seconds > 0.0)) {
        return usage("--seconds takes a positive number");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      config.trace = value == "1";
    } else if (arg == "--spans") {
      config.span_path = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  const auto workload = workloads.find(config.workload);
  if (workload == workloads.end()) return usage("unknown or missing --workload");

  Result result;
  try {
    workload->second(config, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fcmbench: %s failed: %s\n", config.workload.c_str(),
                 e.what());
    return 2;
  }
  result.print(config.trace);
  return result.correct() ? 0 : 1;
}
