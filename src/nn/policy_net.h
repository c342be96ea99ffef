// Tiny causal language models standing in for the RLHF LLMs.
//
// Two architectures share one API:
//   * kMlpMixer (default): the context window is embedded through a shared
//     table, mixed with per-position projections, and passed through a
//     GELU MLP. Cheap and sufficient for the RLHF dataflow tests.
//   * kTransformer: a real (tiny) pre-norm transformer — token + position
//     embeddings, `num_layers` blocks of single-head self-attention and a
//     GELU MLP with residual connections, final layernorm, and the output
//     head applied to the last position. The window holds only
//     already-generated tokens, so full (unmasked) attention inside the
//     window is causal with respect to the token being predicted. The
//     trunk is one batched autograd graph: all contexts' window positions
//     are stacked as [batch * K, embed] rows, every shared-weight op runs
//     once on them, and BlockAttention attends within each context's
//     K rows — so a forward costs the same ~30 kernel calls at any batch
//     size, with values bitwise equal to running each context alone.
//
// The output head is either vocabulary logits (actor / reference policy)
// or a scalar (critic / reward / cost models — the paper's "language
// modeling head replaced by a scalar output head", §2.1).
//
// These networks run real forward/backward/Adam updates inside the worker
// classes, so every RLHF dataflow in this repo trains something real while
// the simulated cluster accounts the time of the full-size Llama models.
#ifndef SRC_NN_POLICY_NET_H_
#define SRC_NN_POLICY_NET_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/tensor/ops.h"
#include "src/tensor/tensor.h"

namespace hybridflow {

enum class PolicyArch {
  kMlpMixer,
  kTransformer,
};

struct PolicyNetConfig {
  PolicyArch arch = PolicyArch::kMlpMixer;
  int64_t vocab_size = 16;
  int64_t context_window = 4;  // K last tokens visible to the model.
  int64_t embed_dim = 16;
  int64_t hidden_dim = 32;     // MLP width (both architectures).
  int64_t num_layers = 2;      // Transformer blocks (kTransformer only).
  bool scalar_head = false;    // true -> critic/reward-style scalar output.
};

class PolicyNet {
 public:
  PolicyNet(const PolicyNetConfig& config, Rng& rng);

  const PolicyNetConfig& config() const { return config_; }

  // `contexts` is a [batch][K] window of token ids (left-padded with 0).
  // Returns logits [batch, vocab] (scalar_head=false) or values [batch]
  // (scalar_head=true).
  Tensor Forward(const std::vector<std::vector<int64_t>>& contexts) const;

  // Log-probabilities of `tokens` under the model given `contexts`: [batch].
  Tensor LogProb(const std::vector<std::vector<int64_t>>& contexts,
                 const std::vector<int64_t>& tokens) const;

  // Samples one next token per context at the given temperature. No grad.
  std::vector<int64_t> Sample(const std::vector<std::vector<int64_t>>& contexts,
                              double temperature, Rng& rng) const;
  // Greedy next token per context (do_sample=false path of ReMax).
  std::vector<int64_t> Greedy(const std::vector<std::vector<int64_t>>& contexts) const;

  // All trainable parameters (for the optimizer and for weight transfer).
  std::vector<Tensor> Parameters() const;
  // Copies parameter values from another net with identical config (used
  // to initialize the reference policy from the actor).
  void CopyFrom(const PolicyNet& other);

 private:
  // One transformer block's parameters.
  struct Block {
    Tensor wq, wk, wv, wo;        // [E, E].
    Tensor ln1_gamma, ln1_beta;   // [E].
    Tensor ln2_gamma, ln2_beta;   // [E].
    Tensor ff1, ff1_bias;         // [E, H], [H].
    Tensor ff2, ff2_bias;         // [H, E], [E].
  };

  Tensor Trunk(const std::vector<std::vector<int64_t>>& contexts) const;
  Tensor TransformerTrunk(const std::vector<std::vector<int64_t>>& contexts) const;

  PolicyNetConfig config_;
  Tensor embedding_;  // [vocab, embed].

  // kMlpMixer.
  std::vector<Tensor> pos_weights_;  // K of [embed, hidden].
  Tensor hidden_bias_;               // [hidden].

  // kTransformer.
  Tensor pos_embedding_;  // [K, embed].
  std::vector<Block> blocks_;
  Tensor final_gamma_, final_beta_;  // [embed].

  Tensor out_weight_;  // [trunk_dim, vocab] or [trunk_dim, 1].
  Tensor out_bias_;    // [vocab] or [1].
};

// Samples (do_sample=true, at `temperature`) or argmaxes one token from row
// `row` of a [batch, vocab] logits matrix, returning its log-probability
// under the temperature-1 softmax in *log_prob (if non-null). The one token
// selection routine: PolicyNet::Sample/Greedy and the rollout step loop's
// data executor all produce bit-identical tokens for the same logits row.
int64_t SampleLogitsRow(const Tensor& logits, int64_t row, double temperature, bool do_sample,
                        Rng& rng, float* log_prob);

}  // namespace hybridflow

#endif  // SRC_NN_POLICY_NET_H_
