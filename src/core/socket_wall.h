// The wall over real UDP sockets, in one process: the one wall launcher
// (core/launch.h) with one SocketFabric per node, discovered through a
// genuine UDP rendezvous — the multi-process deployment shape
// (examples/wall_node.cpp) minus fork/exec.
#pragma once

#include <span>

#include "core/launch.h"
#include "wall/geometry.h"

namespace pdw::core {

// Run the full wall over per-node UDP socket fabrics on loopback. The
// returned stats are shaped exactly like ClusterPipeline::run()'s —
// stats.wire is directly comparable against the threaded and lockstep
// engines (ProtocolEquivalence proves it equal).
ClusterStats run_socket_wall(const wall::TileGeometry& geo, int k,
                             std::span<const uint8_t> es,
                             const TileDisplayFn& on_display,
                             FtOptions opts = {});

}  // namespace pdw::core
