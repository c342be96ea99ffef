// Figure 16: runtime of the device-mapping algorithm (Algorithm 1) as model
// size and cluster size scale together.
//
// Paper claims validated here:
//   * the search stays far below the paper's half-hour bound;
//   * the parallelism-strategy cache keeps the number of `simu` evaluations
//     small, and runtime follows the search's size (simulations, and one
//     rank-by-rank reshard pricing per distinct actor engine), not model
//     scale.
//
// Writes BENCH_fig16_mapping_runtime.json: per case, the search counts and
// the chosen mapping (sets, backends, train/gen strategies). The runtime
// column is wall-clock, so it is printed but left out of the file, which
// bench_golden byte-compares.

#include <iostream>

#include "src/baselines/system_builder.h"
#include "src/common/strings.h"
#include "src/mapping/device_mapper.h"
#include "src/obs/telemetry.h"

namespace {

const char* BackendName(hybridflow::WorkerBackend backend) {
  switch (backend) {
    case hybridflow::WorkerBackend::k3dParallel:
      return "3d";
    case hybridflow::WorkerBackend::kFsdp:
      return "fsdp";
    case hybridflow::WorkerBackend::kZero:
      return "zero";
  }
  return "?";
}

}  // namespace

int main() {
  using namespace hybridflow;
  std::cout << "==========================================================\n";
  std::cout << "Figure 16: device-mapping algorithm runtime (Algorithm 1)\n";
  std::cout << "==========================================================\n";
  std::cout << StrFormat("%-18s | %10s | %12s | %12s | %10s\n", "config", "placements",
                         "simulations", "cache hits", "runtime");

  struct Case {
    const char* model;
    int gpus;
  };
  const Case cases[] = {{"7B", 16}, {"13B", 32}, {"34B", 64}, {"70B", 96}, {"70B", 128}};
  BenchReport report("fig16_mapping_runtime");
  double previous = 0.0;
  for (const Case& c : cases) {
    const ModelSpec model = ModelSpec::ByName(c.model);
    const std::vector<MappedModelDesc> models =
        DataflowModels(RlhfAlgorithm::kPpo, model, model);
    DeviceMapper mapper(models, RlhfWorkloadSpec(), ClusterSpec::WithGpus(c.gpus));
    MappingResult result = mapper.Map(c.gpus);
    std::cout << StrFormat("%-6s x %3d GPUs | %10lld | %12lld | %12lld | %10s%s\n", c.model,
                           c.gpus, static_cast<long long>(result.placements_examined),
                           static_cast<long long>(result.simulations),
                           static_cast<long long>(result.cache_hits),
                           HumanSeconds(result.wall_seconds).c_str(),
                           result.feasible ? "" : "  (infeasible)");
    if (previous > 0.0) {
      std::cout << StrFormat("%-18s   growth vs previous: %.2fx\n", "",
                             result.wall_seconds / previous);
    }
    previous = result.wall_seconds;

    TelemetryFields& row = report.AddRow();
    row.Text("model", c.model)
        .Number("gpus", c.gpus)
        .Number("placements", static_cast<double>(result.placements_examined))
        .Number("simulations", static_cast<double>(result.simulations))
        .Number("cache_hits", static_cast<double>(result.cache_hits))
        .Number("feasible", result.feasible ? 1 : 0)
        .Number("est_iteration_seconds", result.est_iteration_seconds);
    // Sets as "<first_device>+<gpus>:<name>,<name>", joined with " | ".
    std::string sets;
    for (const ColocatedSetResult& set : result.sets) {
      sets += sets.empty() ? "" : " | ";
      sets += StrFormat("%d+%d:", set.first_device, set.gpus);
      for (size_t m = 0; m < set.model_names.size(); ++m) {
        sets += (m == 0 ? "" : ",") + set.model_names[m];
      }
    }
    row.Text("sets", sets);
    for (const MappedModelDesc& desc : models) {
      const auto it = result.models.find(desc.name);
      if (it == result.models.end()) {
        continue;
      }
      const ModelMapping& mapping = it->second;
      row.Text(desc.name + ".backend", BackendName(mapping.backend))
          .Text(desc.name + ".train", mapping.train.ToString());
      if (desc.is_actor()) {
        row.Text(desc.name + ".gen", mapping.gen.ToString());
      }
    }
  }
  if (report.WriteJson()) {
    std::cout << "\nwrote " << report.FilePath() << " (" << report.size() << " rows)\n";
  }
  std::cout << "\nExpected shape: milliseconds that follow the search's size (simulations\n"
               "and distinct actor engines) rather than model scale; absolute runtimes\n"
               "are far below the paper's (their simulators model kernels in detail).\n";
  return 0;
}
