// Shared measurement plumbing for the perfbench workloads: the result
// record, wall timing, set-up sampling, and the traced-operation ledger that
// turns WallclockTracer spans and MetricsRegistry instruments into
// per-layer figures. It reads only what the library already records.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/obs/trace.h"

namespace perfbench {

struct BenchArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct BenchResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  // Per-layer and workload figures (what a traced run reports).
  std::map<std::string, double> metrics;
  // Raw samples of the end-to-end metrics, one per set-up build or timed
  // operation (what an untraced run reports); perfbench/run.py pools the
  // samples of several processes and takes their medians.
  std::map<std::string, std::vector<double>> samples;
  // Human-readable lines printed before the JSON result line.
  std::vector<std::string> report;

  void Fail(const std::string& why);
  void Note(const std::string& line) { report.push_back(line); }
};

// Prints the report lines, then one JSON line {"correct", "attempted",
// "failed", "metrics", "samples"}; perfbench/run.py adds the units from
// BENCHMARK.json. Returns false when a metric is not finite or a sample is
// not positive.
bool PrintResult(const BenchResult& result);

inline double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values);
// Nearest-rank percentile, q in [0, 1].
double Percentile(std::vector<double> values, double q);

// Times the workload's set-up: `build`, after an untimed `teardown` of the
// previous build. One build is short next to a run and sensitive to what
// else the machine is doing at that moment, so samples are spread over the
// run: at least two up front, then more between operations while set-up
// time stays under 5% of the run's elapsed time.
class SetupTimer {
 public:
  SetupTimer(std::function<void()> teardown, std::function<void()> build)
      : teardown_(std::move(teardown)), build_(std::move(build)) {}

  // Samples until the minimum count and the elapsed-time share are met.
  void Sample(double elapsed_s);
  const std::vector<double>& seconds() const { return samples_; }

 private:
  std::function<void()> teardown_;
  std::function<void()> build_;
  std::vector<double> samples_;
  double total_s_ = 0.0;
};

// One MetricsRegistry instrument summed over traced operations: `value` for
// counters, `count` and `sum` for histograms. Keyed by name plus the
// exported label object, e.g. `tensor.kernel_us{"op":"matmul"}`.
struct RegistryValue {
  double value = 0.0;
  double count = 0.0;
  double sum = 0.0;
};
using RegistryTotals = std::map<std::string, RegistryValue>;

// Sum of counter `name` across every label set.
double SumCounter(const RegistryTotals& totals, const std::string& name);

// The traced half of a --trace 1 run. Each operation runs with the global
// WallclockTracer on and is the root interval on the calling thread. Spans
// on that thread nest inside it (RAII scopes), so a span's self time is
// its duration minus its direct children's, and the root's self time is
// `unattributed_ms`: the self times of an operation sum to its wall time
// exactly. Spans on other threads (pool workers) count as busy time, which
// overlaps the calling thread's.
class TracedOps {
 public:
  TracedOps();
  // Runs `op` traced and returns its wall seconds.
  double Run(const std::function<void()>& op);

  double operations() const { return static_cast<double>(walls_.size()); }
  const RegistryTotals& totals() const { return totals_; }

  // Writes the self-time partition (ms per operation, checked to sum to
  // obs.traced_wall_ms), the kernel and thread-pool layers, and
  // obs.trace_overhead_pct against `untraced_walls`.
  void Report(const std::vector<double>& untraced_walls, BenchResult* result) const;

 private:
  void AddSpans(const std::vector<hybridflow::WallSpan>& spans, double start_us, double end_us);

  uint32_t thread_;
  std::vector<double> walls_;
  double wall_ms_ = 0.0;
  std::map<std::string, double> self_ms_;          // By layer key.
  std::map<std::string, double> other_thread_ms_;  // By span category.
  RegistryTotals totals_;
};

std::string Fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
