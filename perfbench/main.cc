// perfbench: the repository benchmark binary.
//
//   perfbench --workload <ppo_dataplane|sim_async_7b|serve_bursty>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Prints human-readable report lines, then one JSON line
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..},
//    "samples": {..}}
// where `samples` holds raw samples of the end-to-end metrics (--trace 0;
// perfbench/run.py pools several processes and reports medians) and
// `metrics` the per-layer figures (--trace 1). Exit status: 0 all output
// checks passed, 1 a check failed (the result still printed), 2 bad
// arguments or a non-finite value.
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>

#include "perfbench/workloads.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::BenchArgs* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = value == "1";
      if (value != "0" && value != "1") {
        return false;
      }
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && std::isfinite(args->seconds) &&
         args->seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::BenchArgs args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n";
    return 2;
  }
  perfbench::BenchResult result;
  if (args.workload == "ppo_dataplane") {
    result = perfbench::RunPpoDataplane(args);
  } else if (args.workload == "sim_async_7b") {
    result = perfbench::RunSimAsync7b(args);
  } else if (args.workload == "serve_bursty") {
    result = perfbench::RunServeBursty(args);
  } else {
    std::cerr << "unknown workload: " << args.workload << "\n";
    return 2;
  }
  std::cout << "workload " << args.workload << " seed " << args.seed << ": "
            << result.failed << "/" << result.attempted << " operations failed\n";
  if (!perfbench::PrintResult(result)) {
    return 2;
  }
  return result.correct ? 0 : 1;
}
