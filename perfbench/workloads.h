// The benchmark's workloads; each runs for `args.seconds` of timed work and
// returns its checked result (see README.md for what each one stresses).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "perfbench/harness.h"

namespace perfbench {

BenchResult RunPpoDataplane(const BenchArgs& args);
BenchResult RunSimAsync7b(const BenchArgs& args);
BenchResult RunServeBursty(const BenchArgs& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
