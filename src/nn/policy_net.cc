#include "src/nn/policy_net.h"

#include <cmath>

namespace hybridflow {

namespace {

// One SampleLogitsRow draw per row of a [batch, vocab] logits matrix.
std::vector<int64_t> SampleRows(const Tensor& logits, double temperature, bool do_sample,
                                Rng& rng) {
  std::vector<int64_t> tokens(static_cast<size_t>(logits.dim(0)));
  for (size_t i = 0; i < tokens.size(); ++i) {
    tokens[i] =
        SampleLogitsRow(logits, static_cast<int64_t>(i), temperature, do_sample, rng, nullptr);
  }
  return tokens;
}

}  // namespace

PolicyNet::PolicyNet(const PolicyNetConfig& config, Rng& rng) : config_(config) {
  HF_CHECK_GT(config_.vocab_size, 1);
  HF_CHECK_GT(config_.context_window, 0);
  const float embed_std = 1.0f / std::sqrt(static_cast<float>(config_.embed_dim));
  const float hidden_std = 1.0f / std::sqrt(static_cast<float>(config_.hidden_dim));
  embedding_ = Tensor::Randn({config_.vocab_size, config_.embed_dim}, rng, embed_std);

  int64_t trunk_dim = 0;
  if (config_.arch == PolicyArch::kMlpMixer) {
    pos_weights_.reserve(static_cast<size_t>(config_.context_window));
    for (int64_t k = 0; k < config_.context_window; ++k) {
      pos_weights_.push_back(
          Tensor::Randn({config_.embed_dim, config_.hidden_dim}, rng, embed_std));
    }
    hidden_bias_ = Tensor::Zeros({config_.hidden_dim}, /*requires_grad=*/true);
    trunk_dim = config_.hidden_dim;
  } else {
    HF_CHECK_GT(config_.num_layers, 0);
    pos_embedding_ =
        Tensor::Randn({config_.context_window, config_.embed_dim}, rng, embed_std);
    blocks_.reserve(static_cast<size_t>(config_.num_layers));
    for (int64_t layer = 0; layer < config_.num_layers; ++layer) {
      Block block;
      block.wq = Tensor::Randn({config_.embed_dim, config_.embed_dim}, rng, embed_std);
      block.wk = Tensor::Randn({config_.embed_dim, config_.embed_dim}, rng, embed_std);
      block.wv = Tensor::Randn({config_.embed_dim, config_.embed_dim}, rng, embed_std);
      block.wo = Tensor::Randn({config_.embed_dim, config_.embed_dim}, rng, embed_std);
      block.ln1_gamma = Tensor::Full({config_.embed_dim}, 1.0f, /*requires_grad=*/true);
      block.ln1_beta = Tensor::Zeros({config_.embed_dim}, /*requires_grad=*/true);
      block.ln2_gamma = Tensor::Full({config_.embed_dim}, 1.0f, /*requires_grad=*/true);
      block.ln2_beta = Tensor::Zeros({config_.embed_dim}, /*requires_grad=*/true);
      block.ff1 = Tensor::Randn({config_.embed_dim, config_.hidden_dim}, rng, embed_std);
      block.ff1_bias = Tensor::Zeros({config_.hidden_dim}, /*requires_grad=*/true);
      block.ff2 = Tensor::Randn({config_.hidden_dim, config_.embed_dim}, rng, hidden_std);
      block.ff2_bias = Tensor::Zeros({config_.embed_dim}, /*requires_grad=*/true);
      blocks_.push_back(std::move(block));
    }
    final_gamma_ = Tensor::Full({config_.embed_dim}, 1.0f, /*requires_grad=*/true);
    final_beta_ = Tensor::Zeros({config_.embed_dim}, /*requires_grad=*/true);
    trunk_dim = config_.embed_dim;
  }

  const int64_t out_dim = config_.scalar_head ? 1 : config_.vocab_size;
  const float trunk_std = 1.0f / std::sqrt(static_cast<float>(trunk_dim));
  out_weight_ = Tensor::Randn({trunk_dim, out_dim}, rng, trunk_std);
  out_bias_ = Tensor::Zeros({out_dim}, /*requires_grad=*/true);
}

Tensor PolicyNet::TransformerTrunk(const std::vector<std::vector<int64_t>>& contexts) const {
  // Every context's K window positions are stacked as rows
  // [i * K, (i + 1) * K) of one [batch * K, E] activation, so each
  // shared-weight op runs once per layer for the whole batch. Every
  // kernel works row by row, so the values equal a per-context forward
  // bit for bit; only attention mixes rows, and BlockAttention keeps it
  // inside each context's K x K block.
  const int64_t window = config_.context_window;
  const size_t rows = contexts.size() * static_cast<size_t>(window);
  std::vector<int64_t> tokens;
  std::vector<int64_t> positions;
  std::vector<int64_t> last_rows;
  tokens.reserve(rows);
  positions.reserve(rows);
  last_rows.reserve(contexts.size());
  for (const std::vector<int64_t>& context : contexts) {
    HF_CHECK_EQ(static_cast<int64_t>(context.size()), window);
    tokens.insert(tokens.end(), context.begin(), context.end());
    for (int64_t t = 0; t < window; ++t) {
      positions.push_back(t);
    }
    last_rows.push_back(static_cast<int64_t>(tokens.size()) - 1);
  }
  const float attention_scale = 1.0f / std::sqrt(static_cast<float>(config_.embed_dim));
  Tensor x = Add(GatherRows(embedding_, tokens), GatherRows(pos_embedding_, positions));
  for (const Block& block : blocks_) {
    // Pre-norm single-head self-attention with a residual connection. The
    // whole window is past context for the next-token prediction, so no
    // causal mask is needed (only the last position feeds the head).
    Tensor normed = LayerNorm(x, block.ln1_gamma, block.ln1_beta);
    Tensor q = MatMul(normed, block.wq);
    Tensor k = MatMul(normed, block.wk);
    Tensor v = MatMul(normed, block.wv);
    Tensor attention = BlockAttention(q, k, v, window, attention_scale);
    x = Add(x, MatMul(attention, block.wo));
    // Pre-norm MLP with a residual connection. ln2 feeds only ff1, so
    // the fused LayerNormMatMul applies (ln1 above is shared by q/k/v
    // and stays composed).
    Tensor mlp_pre = LayerNormMatMul(x, block.ln2_gamma, block.ln2_beta, block.ff1);
    Tensor hidden = Gelu(Add(mlp_pre, block.ff1_bias));
    x = Add(x, Add(MatMul(hidden, block.ff2), block.ff2_bias));
  }
  // Only each context's last position feeds the head.
  return LayerNorm(GatherRows(x, last_rows), final_gamma_, final_beta_);
}

Tensor PolicyNet::Trunk(const std::vector<std::vector<int64_t>>& contexts) const {
  HF_CHECK(!contexts.empty());
  if (config_.arch == PolicyArch::kTransformer) {
    return TransformerTrunk(contexts);
  }
  const int64_t batch = static_cast<int64_t>(contexts.size());
  Tensor mixed;
  for (int64_t k = 0; k < config_.context_window; ++k) {
    std::vector<int64_t> position_tokens(static_cast<size_t>(batch));
    for (int64_t i = 0; i < batch; ++i) {
      const std::vector<int64_t>& context = contexts[static_cast<size_t>(i)];
      HF_CHECK_EQ(static_cast<int64_t>(context.size()), config_.context_window);
      position_tokens[static_cast<size_t>(i)] = context[static_cast<size_t>(k)];
    }
    Tensor embedded = GatherRows(embedding_, position_tokens);
    Tensor projected = MatMul(embedded, pos_weights_[static_cast<size_t>(k)]);
    mixed = k == 0 ? projected : Add(mixed, projected);
  }
  return Gelu(Add(mixed, hidden_bias_));
}

Tensor PolicyNet::Forward(const std::vector<std::vector<int64_t>>& contexts) const {
  Tensor hidden = Trunk(contexts);
  Tensor out = Add(MatMul(hidden, out_weight_), out_bias_);
  if (config_.scalar_head) {
    return Reshape(out, {static_cast<int64_t>(contexts.size())});
  }
  return out;
}

Tensor PolicyNet::LogProb(const std::vector<std::vector<int64_t>>& contexts,
                          const std::vector<int64_t>& tokens) const {
  HF_CHECK(!config_.scalar_head);
  HF_CHECK_EQ(contexts.size(), tokens.size());
  Tensor log_probs = LogSoftmax(Forward(contexts));
  return PickPerRow(log_probs, tokens);
}

std::vector<int64_t> PolicyNet::Sample(const std::vector<std::vector<int64_t>>& contexts,
                                       double temperature, Rng& rng) const {
  HF_CHECK(!config_.scalar_head);
  HF_CHECK_GT(temperature, 0.0);
  return SampleRows(Forward(contexts), temperature, /*do_sample=*/true, rng);
}

std::vector<int64_t> PolicyNet::Greedy(const std::vector<std::vector<int64_t>>& contexts) const {
  HF_CHECK(!config_.scalar_head);
  Rng unused(0);  // Argmax never draws.
  return SampleRows(Forward(contexts), /*temperature=*/1.0, /*do_sample=*/false, unused);
}

std::vector<Tensor> PolicyNet::Parameters() const {
  std::vector<Tensor> params;
  params.push_back(embedding_);
  if (config_.arch == PolicyArch::kMlpMixer) {
    for (const Tensor& w : pos_weights_) {
      params.push_back(w);
    }
    params.push_back(hidden_bias_);
  } else {
    params.push_back(pos_embedding_);
    for (const Block& block : blocks_) {
      params.push_back(block.wq);
      params.push_back(block.wk);
      params.push_back(block.wv);
      params.push_back(block.wo);
      params.push_back(block.ln1_gamma);
      params.push_back(block.ln1_beta);
      params.push_back(block.ln2_gamma);
      params.push_back(block.ln2_beta);
      params.push_back(block.ff1);
      params.push_back(block.ff1_bias);
      params.push_back(block.ff2);
      params.push_back(block.ff2_bias);
    }
    params.push_back(final_gamma_);
    params.push_back(final_beta_);
  }
  params.push_back(out_weight_);
  params.push_back(out_bias_);
  return params;
}

void PolicyNet::CopyFrom(const PolicyNet& other) {
  std::vector<Tensor> mine = Parameters();
  std::vector<Tensor> theirs = other.Parameters();
  HF_CHECK_EQ(mine.size(), theirs.size());
  for (size_t i = 0; i < mine.size(); ++i) {
    HF_CHECK(mine[i].shape() == theirs[i].shape());
    mine[i].data() = theirs[i].data();
  }
}

int64_t SampleLogitsRow(const Tensor& logits, int64_t row, double temperature, bool do_sample,
                        Rng& rng, float* log_prob) {
  const int64_t vocab = logits.dim(1);
  double max_logit = logits.at(row, 0);
  for (int64_t j = 1; j < vocab; ++j) {
    max_logit = std::max(max_logit, static_cast<double>(logits.at(row, j)));
  }
  double denom = 0.0;
  for (int64_t j = 0; j < vocab; ++j) {
    denom += std::exp(static_cast<double>(logits.at(row, j)) - max_logit);
  }
  int64_t chosen = 0;
  if (do_sample) {
    std::vector<double> weights(static_cast<size_t>(vocab));
    for (int64_t j = 0; j < vocab; ++j) {
      weights[static_cast<size_t>(j)] =
          std::exp((static_cast<double>(logits.at(row, j)) - max_logit) / temperature);
    }
    chosen = rng.Categorical(weights);
  } else {
    for (int64_t j = 1; j < vocab; ++j) {
      if (logits.at(row, j) > logits.at(row, chosen)) {
        chosen = j;
      }
    }
  }
  if (log_prob != nullptr) {
    *log_prob = static_cast<float>(static_cast<double>(logits.at(row, chosen)) - max_logit -
                                   std::log(denom));
  }
  return chosen;
}

}  // namespace hybridflow
