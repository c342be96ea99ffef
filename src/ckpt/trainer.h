// Fault-tolerant training driver: runs an RLHF program for many
// iterations, checkpointing every k iterations through the single
// controller, detecting injected failures, and recovering by restoring the
// latest snapshot's actor and critic parameters (§9 "Fault Tolerance").
// Recovery resets the iteration counter only: the dataloader, sampling
// RNGs, optimizer state and KL coefficient keep their post-failure values,
// so the re-run iterations see different data than the lost ones (see
// src/ckpt/checkpoint.h and ROADMAP's "Exact fault recovery").
#ifndef SRC_CKPT_TRAINER_H_
#define SRC_CKPT_TRAINER_H_

#include <vector>

#include "src/ckpt/checkpoint.h"
#include "src/rlhf/rlhf_program.h"

namespace hybridflow {

struct TrainerConfig {
  int total_iterations = 10;
  int checkpoint_interval = 5;
  // Injects a failure after this iteration completes (-1 disables). The
  // failed iteration's updates are lost; training resumes from the latest
  // checkpoint.
  int fail_after_iteration = -1;
};

struct TrainerReport {
  std::vector<IterationMetrics> history;
  int checkpoints_taken = 0;
  int failures_recovered = 0;
  int64_t final_iteration = 0;
};

class RlhfTrainer {
 public:
  RlhfTrainer(RlhfProgram* program, RlhfModels models);

  // Runs the training loop with checkpoint/recovery handling.
  TrainerReport Run(const TrainerConfig& config);

  CheckpointManager& checkpoints() { return manager_; }

 private:
  std::map<std::string, const PolicyNet*> ConstNets() const;
  std::map<std::string, PolicyNet*> MutableNets() const;

  RlhfProgram* program_;
  RlhfModels models_;
  CheckpointManager manager_;
};

}  // namespace hybridflow

#endif  // SRC_CKPT_TRAINER_H_
