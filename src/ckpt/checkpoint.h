// Checkpointing and fault tolerance (§9 "Discussions").
//
// The single controller coordinates checkpoint operations via RPC: the
// trainable worker groups serialize their parameters, and the controller
// adds the iteration counter and a dataloader position (RlhfTrainer
// records the iteration count there). Snapshots are in-memory by default
// (Gemini-style redundancy-based recovery) and can be persisted to disk.
//
// A checkpoint holds only that: parameters, iteration and position. It
// has no RNG streams, no Adam moments or step count, no adaptive-KL
// coefficient and no staged async experience, and restoring it does not
// rewind the dataloader (RlhfTrainer ignores the restored position). So a
// recovered run differs from the failure-free one; the paper's "dataloader
// position and RNG state" consistency is ROADMAP's open item "Exact fault
// recovery".
#ifndef SRC_CKPT_CHECKPOINT_H_
#define SRC_CKPT_CHECKPOINT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/nn/policy_net.h"

namespace hybridflow {

// Serialized state of one model (all parameter tensors, flattened).
struct ModelSnapshot {
  std::vector<std::vector<float>> parameters;
  // Simple integrity checksum for silent-data-corruption detection (§9).
  uint64_t checksum = 0;

  static ModelSnapshot FromNet(const PolicyNet& net);
  // Restores into `net`; returns false on shape or checksum mismatch.
  bool RestoreInto(PolicyNet* net) const;
  bool Verify() const;
};

// One checkpoint: the captured models' parameters plus the recorded
// dataloader position and iteration counter (see the file comment for
// what it does not hold).
struct SystemCheckpoint {
  int64_t iteration = 0;
  int64_t dataloader_position = 0;
  std::map<std::string, ModelSnapshot> models;

  bool Verify() const;
};

// Controller-side checkpoint coordinator. Keeps the last `max_snapshots`
// checkpoints in memory; optionally spills to a directory.
class CheckpointManager {
 public:
  explicit CheckpointManager(int max_snapshots = 2) : max_snapshots_(max_snapshots) {}

  // Captures a checkpoint from named nets (nullptr entries are skipped).
  const SystemCheckpoint& Capture(int64_t iteration, int64_t dataloader_position,
                                  const std::map<std::string, const PolicyNet*>& nets);

  bool HasCheckpoint() const { return !snapshots_.empty(); }
  const SystemCheckpoint& Latest() const;
  int64_t LatestIteration() const;

  // Restores the latest checkpoint into the given nets. Returns false when
  // no checkpoint exists or any snapshot fails verification.
  bool Restore(const std::map<std::string, PolicyNet*>& nets, int64_t* iteration,
               int64_t* dataloader_position) const;

  // Disk persistence (one binary file per checkpoint).
  bool SaveToFile(const std::string& path) const;
  bool LoadFromFile(const std::string& path);

  // Corrupts the latest snapshot (testing hook for the checksum path).
  void CorruptLatestForTesting();

 private:
  int max_snapshots_;
  std::vector<SystemCheckpoint> snapshots_;
};

// Computes the FNV-1a checksum over float data, for SDC detection.
uint64_t ChecksumFloats(const std::vector<std::vector<float>>& data);

}  // namespace hybridflow

#endif  // SRC_CKPT_CHECKPOINT_H_
