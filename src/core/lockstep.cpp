#include "core/lockstep.h"

#include <algorithm>

#include "common/check.h"

namespace pdw::core {

LockstepPipeline::LockstepPipeline(const wall::TileGeometry& geo, int k,
                                   std::span<const uint8_t> es,
                                   obs::MetricsRegistry* metrics,
                                   proto::RootNode::AdaptivePartition adaptive)
    : geo_(geo), k_(k), es_(es), metrics_(metrics), adaptive_(adaptive) {
  PDW_CHECK_GE(k, 1);
  stream_ = std::make_unique<proto::SerialStream>(geo_, k_, es_, metrics_,
                                                  adaptive_);
}

LockstepPipeline::~LockstepPipeline() = default;

void LockstepPipeline::reset() {
  stream_ = std::make_unique<proto::SerialStream>(geo_, k_, es_, metrics_,
                                                  adaptive_);
  ran_ = false;
}

void LockstepPipeline::run(const TileDisplayFn& on_display,
                           const TraceFn& on_trace, int max_pictures) {
  PDW_CHECK(!ran_) << "run() called twice without reset()";
  ran_ = true;
  const int limit = max_pictures >= 0
                        ? std::min(max_pictures, stream_->picture_count())
                        : stream_->picture_count();
  for (int i = 0; i < limit; ++i) stream_->step(on_display, on_trace);
  stream_->finish(on_display);
}

}  // namespace pdw::core
