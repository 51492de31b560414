// Threaded cluster pipeline: the refined algorithms of the paper's Table 3
// running on real concurrent nodes over the GM-like fabric, hardened for
// fault tolerance.
//
// Every protocol decision — round-robin dispatch and NSID stamping, ANID
// ack redirection, one-picture-ahead go-ahead gating, heartbeat monitoring,
// death detection, resynchronization-picture selection, adopt-vs-degrade
// rerouting, skip broadcasts — lives in the proto/ node state machines
// (proto/nodes.h). The launcher only *hosts* them: one thread per node pumps a
// net::ReliableEndpoint, decodes incoming wire messages, feeds them to its
// state machine and transmits whatever the machine returns, running the
// actual compute (splitting, pixel extraction, tile decoding) when the
// machine says the inputs are complete. The lockstep reference and the
// discrete-event simulator drive the very same machines, which keeps the
// three engines protocol-identical by construction.
//
// Transport properties (net/):
//   * two posted receive buffers per bulk receiver, recycled on receipt;
//   * every application message rides net::ReliableEndpoint — per-link
//     sequence numbers + CRC framing, ack/retransmit with capped exponential
//     backoff, duplicate suppression and in-order delivery — so a lossy,
//     reordering, corrupting fabric still presents each node with the
//     fault-free message sequence and the decoded wall stays bit-exact;
//   * a node the root declares dead is fenced off (Fabric::kill) and dropped
//     from every endpoint's retransmit queues (forget_peer).
//
// ClusterPipeline is the in-process deployment of the one wall launcher
// (core/launch.h): one thread per node over one shared net::Fabric.
#pragma once

#include <span>

#include "core/launch.h"
#include "wall/geometry.h"

namespace pdw::core {

class ClusterPipeline {
 public:
  ClusterPipeline(const wall::TileGeometry& geo, int k,
                  std::span<const uint8_t> es, FtOptions ft = {});

  // Thread-safe display callback (called with an internal mutex held).
  using TileDisplayFn = core::TileDisplayFn;

  ClusterStats run(const TileDisplayFn& on_display);

  int nodes() const { return topo_.nodes(); }
  int root_node() const { return topo_.root(); }
  int splitter_node(int s) const { return topo_.splitter(s); }
  int decoder_node(int t) const { return topo_.decoder(t); }

 private:
  const wall::TileGeometry& geo_;
  int k_;
  proto::Topology topo_;
  std::span<const uint8_t> es_;
  FtOptions ft_;
};

}  // namespace pdw::core
