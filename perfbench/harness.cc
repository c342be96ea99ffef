#include "perfbench/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "src/obs/metrics.h"

namespace perfbench {

using hybridflow::WallclockTracer;
using hybridflow::WallSpan;

namespace {

// The seven dispatched worker ops of the dataflows (src/workers/).
const char* const kDispatchedOps[] = {
    "compute_log_prob", "compute_loss",         "update_actor",    "compute_values",
    "update_critic",    "compute_ref_log_prob", "compute_rewards",
};

// The layer key of a calling-thread span; categories the library does not
// record today count as unattributed.
std::string LayerOf(const WallSpan& span) {
  const std::string& c = span.category;
  if (c == "rlhf") {
    if (span.name == "rlhf.stage.generation") {
      return "rlhf.generation_ms";
    }
    if (span.name == "rlhf.stage.experience") {
      return "rlhf.experience_ms";
    }
    if (span.name == "rlhf.stage.learning") {
      return "rlhf.learning_ms";
    }
    return "rlhf.iteration_ms";
  }
  if (c == "compute") {
    // "<model>.<op>.compute"
    const size_t first = span.name.find('.');
    const size_t last = span.name.rfind('.');
    if (first != std::string::npos && last > first) {
      const std::string op = span.name.substr(first + 1, last - first - 1);
      for (const char* known : kDispatchedOps) {
        if (op == known) {
          return "workers.compute_ms." + op;
        }
      }
    }
    return "workers.compute_ms.other";
  }
  static const std::map<std::string, std::string> kByCategory = {
      {"dispatch", "workers.dispatch_ms"},  {"generate", "workers.generate_ms"},
      {"transfer", "transfer.ms"},          {"reshard", "hybridengine.reshard_ms"},
      {"tensor", "tensor.matmul_ms"},       {"controller", "controller.ms"},
  };
  const auto it = kByCategory.find(c);
  return it == kByCategory.end() ? "unattributed_ms" : it->second;
}

// Extracts the number following `"key":` in `line`; 0 when absent.
double NumberAfter(const std::string& line, const std::string& key) {
  const size_t at = line.find("\"" + key + "\":");
  return at == std::string::npos ? 0.0 : std::strtod(line.c_str() + at + key.size() + 3, nullptr);
}

// Every registry instrument, from the JSON-lines export.
RegistryTotals SnapshotRegistry() {
  RegistryTotals snapshot;
  std::istringstream lines(hybridflow::MetricsRegistry::Global().ToJsonLines());
  std::string line;
  while (std::getline(lines, line)) {
    const size_t name_at = line.find("\"name\":\"");
    const size_t labels_at = line.find("\"labels\":");
    if (name_at == std::string::npos || labels_at == std::string::npos) {
      continue;
    }
    const size_t name_begin = name_at + 8;
    const size_t labels_begin = labels_at + 9;
    const std::string key =
        line.substr(name_begin, line.find('"', name_begin) - name_begin) +
        line.substr(labels_begin, line.find('}', labels_begin) + 1 - labels_begin);
    snapshot[key] = {NumberAfter(line, "value"), NumberAfter(line, "count"),
                     NumberAfter(line, "sum")};
  }
  return snapshot;
}

}  // namespace

void BenchResult::Fail(const std::string& why) {
  correct = false;
  report.push_back("CHECK FAILED: " + why);
}

bool PrintResult(const BenchResult& result) {
  for (const std::string& line : result.report) {
    std::cout << line << "\n";
  }
  bool ok = true;
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (result.correct ? "true" : "false")
       << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
       << ", \"metrics\": {";
  const char* separator = "";
  for (const auto& [name, value] : result.metrics) {
    ok = ok && std::isfinite(value);
    json << separator << "\"" << name << "\": " << (std::isfinite(value) ? value : 0.0);
    separator = ", ";
  }
  json << "}, \"samples\": {";
  separator = "";
  for (const auto& [name, values] : result.samples) {
    json << separator << "\"" << name << "\": [";
    separator = ", ";
    for (size_t i = 0; i < values.size(); ++i) {
      ok = ok && std::isfinite(values[i]) && values[i] > 0.0;
      json << (i == 0 ? "" : ", ") << values[i];
    }
    json << "]";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  if (!ok) {
    std::cerr << "perfbench: a metric is not finite or a sample is not positive\n";
  }
  return ok;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

void SetupTimer::Sample(double elapsed_s) {
  constexpr size_t kMinSamples = 2;
  constexpr size_t kMaxSamples = 100000;
  constexpr double kShare = 0.05;
  while (samples_.size() < kMinSamples ||
         (total_s_ < kShare * elapsed_s && samples_.size() < kMaxSamples)) {
    teardown_();
    const double start = NowSeconds();
    build_();
    samples_.push_back(NowSeconds() - start);
    total_s_ += samples_.back();
  }
}

double SumCounter(const RegistryTotals& totals, const std::string& name) {
  double total = 0.0;
  for (const auto& [key, value] : totals) {
    if (key.compare(0, name.size() + 1, name + "{") == 0) {
      total += value.value;
    }
  }
  return total;
}

TracedOps::TracedOps() : thread_(WallclockTracer::ThreadId()) {}

double TracedOps::Run(const std::function<void()>& op) {
  WallclockTracer& tracer = WallclockTracer::Global();
  tracer.Clear();
  const RegistryTotals before = SnapshotRegistry();
  tracer.SetEnabled(true);
  const double start_us = WallclockTracer::NowMicros();
  op();
  const double end_us = WallclockTracer::NowMicros();
  tracer.SetEnabled(false);
  for (const auto& [key, after] : SnapshotRegistry()) {
    const auto it = before.find(key);
    const RegistryValue prior = it == before.end() ? RegistryValue{} : it->second;
    RegistryValue& total = totals_[key];
    total.value += after.value - prior.value;
    total.count += after.count - prior.count;
    total.sum += after.sum - prior.sum;
  }
  AddSpans(tracer.Snapshot(), start_us, end_us);
  tracer.Clear();
  walls_.push_back((end_us - start_us) / 1e6);
  return walls_.back();
}

void TracedOps::AddSpans(const std::vector<WallSpan>& spans, double start_us, double end_us) {
  struct Open {
    std::string key;
    double end_us;
    double self_us;
  };
  std::vector<const WallSpan*> own;
  for (const WallSpan& span : spans) {
    if (span.start_us < start_us || span.start_us + span.duration_us > end_us) {
      continue;
    }
    if (span.thread_id == thread_) {
      own.push_back(&span);
    } else {
      other_thread_ms_[span.category] += span.duration_us / 1000.0;
    }
  }
  // Parents start no later and end no earlier than their children; order
  // parents first so a stack recovers the nesting.
  std::sort(own.begin(), own.end(), [](const WallSpan* a, const WallSpan* b) {
    return a->start_us != b->start_us ? a->start_us < b->start_us
                                      : a->duration_us > b->duration_us;
  });
  std::vector<Open> stack = {{"unattributed_ms", end_us, end_us - start_us}};
  const auto close_until = [&](double t) {
    while (stack.size() > 1 && stack.back().end_us <= t) {
      self_ms_[stack.back().key] += stack.back().self_us / 1000.0;
      stack.pop_back();
    }
  };
  for (const WallSpan* span : own) {
    close_until(span->start_us);
    stack.back().self_us -= span->duration_us;
    stack.push_back({LayerOf(*span), span->start_us + span->duration_us, span->duration_us});
  }
  close_until(end_us);
  self_ms_["unattributed_ms"] += stack.back().self_us / 1000.0;
  wall_ms_ += (end_us - start_us) / 1000.0;
}

void TracedOps::Report(const std::vector<double>& untraced_walls, BenchResult* result) const {
  const double ops = std::max(1.0, operations());
  const double wall_ms = wall_ms_ / ops;
  double partition_ms = 0.0;
  for (const auto& [key, ms] : self_ms_) {
    result->metrics[key] = ms / ops;
    partition_ms += ms / ops;
  }
  result->metrics["obs.traced_wall_ms"] = wall_ms;
  result->Note(Fmt("traced: %.0f op(s), %.3f ms/op wall; layer self times + unattributed = "
                   "%.3f ms/op",
                   ops, wall_ms, partition_ms));
  if (std::fabs(partition_ms - wall_ms) > 1e-6 * std::max(1.0, wall_ms)) {
    result->Fail(Fmt("self-time partition %.6f ms != traced wall %.6f ms", partition_ms,
                     wall_ms));
  }
  for (const auto& [key, ms] : self_ms_) {
    result->Note(Fmt("  %-40s %10.3f ms/op %6.1f%%", key.c_str(), ms / ops,
                     100.0 * ms / ops / std::max(wall_ms, 1e-9)));
  }

  // Kernel layer: the tensor.kernel_us histograms, by op label.
  double fwd_us = 0.0, bwd_us = 0.0, adam_us = 0.0, calls = 0.0;
  const std::string prefix = "tensor.kernel_us{\"op\":\"";
  for (const auto& [key, value] : totals_) {
    if (key.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    const std::string op = key.substr(prefix.size(), key.find('"', prefix.size()) - prefix.size());
    if (op == "adam_step") {
      adam_us += value.sum;
      continue;
    }
    calls += value.count;
    const bool backward = op.size() > 4 && op.compare(op.size() - 4, 4, "_bwd") == 0;
    (backward ? bwd_us : fwd_us) += value.sum;
  }
  result->metrics["tensor.fwd_ms"] = fwd_us / 1000.0 / ops;
  result->metrics["tensor.bwd_ms"] = bwd_us / 1000.0 / ops;
  result->metrics["tensor.kernel_calls"] = calls / ops;
  result->metrics["tensor.us_per_call"] = calls > 0.0 ? (fwd_us + bwd_us) / calls : 0.0;
  result->metrics["tensor.flops"] = SumCounter(totals_, "tensor.flops_total") / ops;
  result->metrics["nn.adam_ms"] = adam_us / 1000.0 / ops;

  // Thread pool: tasks, queue wait, and the worker threads' busy time.
  result->metrics["common.pool_tasks"] = SumCounter(totals_, "threadpool.tasks_completed") / ops;
  const auto wait = totals_.find("threadpool.queue_latency_us{}");
  result->metrics["common.pool_wait_ms"] =
      wait == totals_.end() ? 0.0 : wait->second.sum / 1000.0 / ops;
  const auto busy = other_thread_ms_.find("threadpool");
  result->metrics["common.pool_busy_ms"] =
      busy == other_thread_ms_.end() ? 0.0 : busy->second / ops;

  const double untraced = Median(untraced_walls);
  const double traced = Median(walls_);
  result->metrics["obs.trace_overhead_pct"] = 100.0 * (traced - untraced) / untraced;
  result->Note(Fmt("trace overhead: traced median %.4f s vs untraced %.4f s (%+.2f%%)", traced,
                   untraced, result->metrics["obs.trace_overhead_pct"]));
}

std::string Fmt(const char* format, ...) {
  char buffer[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  return buffer;
}

}  // namespace perfbench
