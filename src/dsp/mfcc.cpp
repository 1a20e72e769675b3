#include "dsp/mfcc.h"

#include <algorithm>
#include <cmath>

namespace phonolid::dsp {

MfccExtractor::MfccExtractor(const MfccConfig& config)
    : config_(config),
      filterbank_(config.num_filters, config.n_fft / 2 + 1, config.sample_rate,
                  config.low_hz, config.high_hz, FilterbankScale::kMel),
      dct_(config.num_filters, config.num_ceps) {}

MfccExtractor::Workspace MfccExtractor::make_workspace() const {
  return Workspace{std::vector<float>(config_.num_filters)};
}

void MfccExtractor::cepstra(std::span<const float> power, Workspace& ws,
                            std::span<float> out) const {
  filterbank_.apply(power, ws.fbank);
  for (auto& v : ws.fbank) v = std::log(std::max(v, config_.log_floor));
  dct_.apply(ws.fbank, out);
}

}  // namespace phonolid::dsp
