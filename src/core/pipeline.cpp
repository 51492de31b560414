#include "core/pipeline.h"

#include "core/socket_wall.h"

namespace pdw::core {

ClusterPipeline::ClusterPipeline(const wall::TileGeometry& geo, int k,
                                 std::span<const uint8_t> es, FtOptions ft)
    : geo_(geo), k_(k), topo_{k, geo.tiles()}, es_(es), ft_(std::move(ft)) {
  PDW_CHECK_GE(k, 1);
}

ClusterStats ClusterPipeline::run(const TileDisplayFn& on_display) {
  return run_wall(geo_, k_, es_, on_display, ft_, Transport::kInProcess);
}

ClusterStats run_socket_wall(const wall::TileGeometry& geo, int k,
                             std::span<const uint8_t> es,
                             const TileDisplayFn& on_display,
                             FtOptions opts) {
  return run_wall(geo, k, es, on_display, opts, Transport::kSocket);
}

}  // namespace pdw::core
