#include "am/gmm_hmm.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "util/logging.h"
#include "util/serialize.h"
#include "util/thread_pool.h"

namespace phonolid::am {

AlignedUtterance align_utterance(const corpus::Utterance& utt,
                                 const dsp::FeaturePipeline& pipeline,
                                 const PhoneSetMap& phone_map) {
  AlignedUtterance out;
  out.features = pipeline.process(utt.samples);
  const std::size_t frames = out.features.rows();
  if (frames == 0 || utt.alignment.empty()) return out;

  const std::size_t frame_len = pipeline.front().frame_length;
  const std::size_t frame_shift = pipeline.front().frame_shift;

  // Assign each frame to the ground-truth phone covering its centre sample,
  // then collapse runs into segments.
  std::size_t seg_phone = std::numeric_limits<std::size_t>::max();
  std::size_t align_pos = 0;
  for (std::size_t t = 0; t < frames; ++t) {
    const std::size_t center = t * frame_shift + frame_len / 2;
    while (align_pos + 1 < utt.alignment.size() &&
           center >= utt.alignment[align_pos].end_sample) {
      ++align_pos;
    }
    const std::size_t fe_phone =
        phone_map.map(utt.alignment[align_pos].phone);
    if (out.phone_seq.empty() || fe_phone != seg_phone ||
        // A new ground-truth segment of the same front-end phone also opens
        // a new segment (two real phones may map to one front-end phone).
        center >= utt.alignment[align_pos].end_sample) {
      if (!out.phone_seq.empty()) out.seg_end.push_back(t);
      out.phone_seq.push_back(fe_phone);
      out.seg_begin.push_back(t);
      seg_phone = fe_phone;
    }
  }
  out.seg_end.push_back(frames);
  return out;
}

GmmHmmModel::GmmHmmModel(HmmTopology topology, std::vector<DiagGmm> state_gmms,
                         HmmTransitions transitions, std::size_t feature_dim)
    : topology_(topology),
      state_gmms_(std::move(state_gmms)),
      transitions_(std::move(transitions)),
      feature_dim_(feature_dim) {
  if (state_gmms_.size() != topology_.num_states()) {
    throw std::invalid_argument("GmmHmmModel: state count mismatch");
  }
  rebuild_scorer();
}

void GmmHmmModel::rebuild_scorer() {
  // Pack every component of every state into one matrix so a whole
  // utterance scores against all states as a single GEMM.
  std::size_t total = 0;
  for (const auto& gmm : state_gmms_) total += gmm.num_components();
  la::BatchedGaussians::Builder builder(feature_dim_, total);
  seg_begin_.clear();
  seg_begin_.reserve(state_gmms_.size() + 1);
  seg_begin_.push_back(0);
  for (const auto& gmm : state_gmms_) {
    for (std::size_t i = 0; i < gmm.num_components(); ++i) {
      builder.add(gmm.component(i).mean(), gmm.component(i).var(),
                  gmm.log_weights()[i]);
    }
    seg_begin_.push_back(seg_begin_.back() + gmm.num_components());
  }
  all_components_ = builder.build();
}

void GmmHmmModel::score(const util::Matrix& features, util::Matrix& out) const {
  const std::size_t frames = features.rows();
  const std::size_t states = num_states();
  out.resize(frames, states);
  util::Matrix comp_scores;
  all_components_.score(features, comp_scores);
  for (std::size_t t = 0; t < frames; ++t) {
    la::logsumexp_segments(comp_scores.row(t), seg_begin_, out.row(t));
  }
}

double GmmHmmModel::score_flops_per_frame() const noexcept {
  return all_components_.flops_per_frame();
}

StateLabels uniform_state_labels(const AlignedUtterance& utt,
                                 const HmmTopology& topology) {
  StateLabels labels;
  labels.state.resize(utt.features.rows());
  const std::size_t sp = topology.states_per_phone;
  for (std::size_t seg = 0; seg < utt.phone_seq.size(); ++seg) {
    const std::size_t begin = utt.seg_begin[seg];
    const std::size_t end = utt.seg_end[seg];
    const std::size_t len = end - begin;
    for (std::size_t i = 0; i < len; ++i) {
      const std::size_t pos = std::min(sp - 1, i * sp / std::max<std::size_t>(len, 1));
      labels.state[begin + i] = topology.state_of(utt.phone_seq[seg], pos);
    }
  }
  return labels;
}

StateLabels forced_align(const AlignedUtterance& utt, const GmmHmmModel& model) {
  const HmmTopology& topo = model.topology();
  const std::size_t sp = topo.states_per_phone;
  const std::size_t frames = utt.features.rows();
  // Expanded linear state sequence: every segment contributes sp states.
  const std::size_t chain = utt.phone_seq.size() * sp;
  if (chain == 0 || frames < chain) {
    return uniform_state_labels(utt, topo);
  }

  util::Matrix scores;
  model.score(utt.features, scores);

  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  // delta[t][j]: best log-prob reaching chain position j at frame t.
  util::Matrix delta(frames, chain, kNegInf);
  std::vector<std::uint8_t> from_prev(frames * chain, 0);

  const auto global_state = [&](std::size_t j) {
    return topo.state_of(utt.phone_seq[j / sp], j % sp);
  };

  delta(0, 0) = scores(0, global_state(0));
  const auto& trans = model.transitions();
  for (std::size_t t = 1; t < frames; ++t) {
    // Position j can only be reached from j or j-1 (left-to-right chain).
    const std::size_t j_hi = std::min(chain - 1, t);
    const std::size_t j_lo = (frames - t <= chain)
                                 ? chain - (frames - t)
                                 : 0;  // must still be able to finish
    for (std::size_t j = j_lo; j <= j_hi; ++j) {
      const std::size_t s = global_state(j);
      float stay = kNegInf, advance = kNegInf;
      if (delta(t - 1, j) != kNegInf) {
        stay = delta(t - 1, j) + trans.log_self[s];
      }
      if (j > 0 && delta(t - 1, j - 1) != kNegInf) {
        advance = delta(t - 1, j - 1) + trans.log_advance[global_state(j - 1)];
      }
      if (stay == kNegInf && advance == kNegInf) continue;
      if (advance > stay) {
        delta(t, j) = advance + scores(t, s);
        from_prev[t * chain + j] = 1;
      } else {
        delta(t, j) = stay + scores(t, s);
        from_prev[t * chain + j] = 0;
      }
    }
  }

  if (delta(frames - 1, chain - 1) == kNegInf) {
    return uniform_state_labels(utt, topo);
  }
  StateLabels labels;
  labels.state.resize(frames);
  std::size_t j = chain - 1;
  for (std::size_t t = frames; t-- > 0;) {
    labels.state[t] = global_state(j);
    if (t > 0 && from_prev[t * chain + j]) --j;
  }
  return labels;
}

GmmHmmModel train_gmm_hmm(const std::vector<AlignedUtterance>& data,
                          std::size_t num_phones,
                          const GmmHmmTrainConfig& config) {
  if (data.empty()) throw std::invalid_argument("train_gmm_hmm: no data");
  const std::size_t dim = data[0].features.cols();
  HmmTopology topo{num_phones, config.states_per_phone};
  const std::size_t states = topo.num_states();

  // Initial labels: uniform splits.
  std::vector<StateLabels> labels(data.size());
  for (std::size_t u = 0; u < data.size(); ++u) {
    labels[u] = uniform_state_labels(data[u], topo);
  }

  GmmHmmModel model;
  for (std::size_t pass = 0; pass <= config.realign_passes; ++pass) {
    // Gather frames per state.
    std::vector<std::vector<std::size_t>> frame_refs(states);  // (utt<<20)|t
    for (std::size_t u = 0; u < data.size(); ++u) {
      for (std::size_t t = 0; t < labels[u].state.size(); ++t) {
        frame_refs[labels[u].state[t]].push_back((u << 20) | t);
      }
    }

    // Average frames per occupied state -> transition prior.
    std::vector<std::size_t> self_counts(states, 0), adv_counts(states, 0);
    for (std::size_t u = 0; u < data.size(); ++u) {
      const auto& st = labels[u].state;
      for (std::size_t t = 0; t + 1 < st.size(); ++t) {
        if (st[t] == st[t + 1]) {
          ++self_counts[st[t]];
        } else {
          ++adv_counts[st[t]];
        }
      }
    }

    std::vector<DiagGmm> gmms(states);
    util::parallel_for(0, states, [&](std::size_t s) {
      const auto& refs = frame_refs[s];
      GmmTrainConfig gc = config.gmm;
      gc.seed = util::derive_stream(config.seed, 0xC000 + s);
      if (refs.empty()) {
        // Unobserved state: train a broad 1-component model on a subsample
        // of everything so decoding scores stay finite.
        util::Matrix pool(std::min<std::size_t>(512, data[0].features.rows()), dim);
        for (std::size_t i = 0; i < pool.rows(); ++i) {
          auto src = data[0].features.row(i % data[0].features.rows());
          std::copy(src.begin(), src.end(), pool.row(i).begin());
        }
        gc.num_components = 1;
        gmms[s].train(pool, gc);
        return;
      }
      util::Matrix frames(refs.size(), dim);
      for (std::size_t i = 0; i < refs.size(); ++i) {
        const std::size_t u = refs[i] >> 20;
        const std::size_t t = refs[i] & 0xFFFFF;
        auto src = data[u].features.row(t);
        std::copy(src.begin(), src.end(), frames.row(i).begin());
      }
      gmms[s].train(frames, gc);
    });

    HmmTransitions trans = HmmTransitions::estimate(self_counts, adv_counts, 3.0);
    model = GmmHmmModel(topo, std::move(gmms), std::move(trans), dim);

    if (pass < config.realign_passes) {
      util::parallel_for(0, data.size(), [&](std::size_t u) {
        labels[u] = forced_align(data[u], model);
      });
    }
  }
  PHONOLID_INFO("am") << "trained GMM-HMM: " << num_phones << " phones, "
                      << states << " states, dim " << dim;
  return model;
}

void GmmHmmModel::serialize(std::ostream& out) const {
  util::BinaryWriter w(out);
  w.write_magic("PGHM", 1);
  w.write_u64(topology_.num_phones);
  w.write_u64(topology_.states_per_phone);
  w.write_u64(feature_dim_);
  w.write_f32_vec(transitions_.log_self);
  w.write_f32_vec(transitions_.log_advance);
  for (const auto& gmm : state_gmms_) gmm.serialize(out);
}

GmmHmmModel GmmHmmModel::deserialize(std::istream& in) {
  util::BinaryReader r(in);
  r.expect_magic("PGHM", 1);
  HmmTopology topo;
  topo.num_phones = r.read_u64();
  topo.states_per_phone = r.read_u64();
  const std::size_t dim = r.read_u64();
  HmmTransitions trans;
  trans.log_self = r.read_f32_vec();
  trans.log_advance = r.read_f32_vec();
  if (trans.log_self.size() != topo.num_states() ||
      trans.log_advance.size() != topo.num_states()) {
    throw util::SerializeError("GmmHmmModel: transition size mismatch");
  }
  std::vector<DiagGmm> gmms;
  gmms.reserve(topo.num_states());
  for (std::size_t s = 0; s < topo.num_states(); ++s) {
    gmms.push_back(DiagGmm::deserialize(in));
  }
  return GmmHmmModel(topo, std::move(gmms), std::move(trans), dim);
}

}  // namespace phonolid::am
