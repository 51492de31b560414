// One way to launch a wall. The paper's 1-k-(m,n) wall is one deployment:
// the root, the k splitters and the m x n decoders run the same code, and a
// node's role comes only from its id. Every launcher here builds its hosts
// the same way:
//   * WallSetup — the stream's RootSplitter, the prewarmed wire pool, the
//     PictureMeta table, the HostShared state and clock, two posted credits
//     per bulk receiver, the role -> host construction and the stats;
//   * run_wall() — one thread per node over either transport, then one
//     event-driven teardown. ClusterPipeline::run (core/pipeline.h) and
//     run_socket_wall (core/socket_wall.h) forward to it;
//   * wall_node (examples/wall_node.cpp) — one OS process per node, which
//     runs its single host through the same WallSetup and keeps only argv,
//     rendezvous, report and linger for itself.
// What differs by transport is only where messages go: one shared
// in-process net::Fabric (optionally faulted by a FaultInjector), or one
// SocketFabric per node found through a UDP rendezvous whose map may point
// at the ImpairProxy.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/timing.h"
#include "common/traffic_matrix.h"
#include "core/hosts.h"
#include "core/root_splitter.h"
#include "net/fabric.h"
#include "net/impair.h"
#include "net/reliable.h"
#include "net/rendezvous.h"
#include "net/socket_fabric.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "proto/nodes.h"
#include "wall/geometry.h"

namespace pdw::core {

struct FtStats {
  net::ReliableStats transport;   // aggregated over every node's endpoint
  uint64_t degraded_frames = 0;   // emissions flagged non-bit-exact
  uint64_t skipped_pictures = 0;  // per-tile pictures lost to abandoned sends
  std::vector<RecoveryEvent> recoveries;
};

struct ClusterStats {
  int pictures = 0;
  double wall_seconds = 0;
  double fps = 0;
  std::vector<net::NodeCounters> node_counters;  // by node id
  // Transport-level bytes (includes retransmits and transport acks).
  TrafficMatrix traffic_matrix;
  // Protocol-level emissions (heartbeats and retransmits excluded) —
  // directly comparable with LockstepPipeline::accounting().
  proto::WireAccounting wire;
  int nodes = 0;
  FtStats ft;
};

struct ProtocolConfig {
  net::ReliableConfig reliable;
  double heartbeat_interval_s = 0.02;
  // Default is "effectively never": a fault-free run must not declare
  // anything dead no matter how badly the scheduler (or a sanitizer)
  // stalls a thread. Fault tests override with something small.
  double heartbeat_timeout_s = 1e9;
};

// The policy enum lives with the rest of the protocol; core keeps the
// spelling for existing callers.
using RecoveryPolicy = proto::RecoveryPolicy;

// How a wall runs, for either transport.
struct FtOptions {
  ProtocolConfig protocol;
  // In-process transport only: seeded faults (borrowed; may be null).
  const net::FaultInjector* injector = nullptr;
  RecoveryPolicy recovery = RecoveryPolicy::kAdopt;
  // Also record per-picture tile x tile exchange matrices in stats.wire
  // (test_parallel_equivalence compares them against the lockstep traces).
  bool per_picture_exchange = false;
  // Registry telemetry lands in (nullptr: the process-global one).
  obs::MetricsRegistry* metrics = nullptr;
  // Adaptive per-GOP tile rebalancing. The engine fills in `geo` itself.
  proto::RootNode::AdaptivePartition adaptive;
  // Socket transport only: when any rate is > 0, every datagram goes
  // through the impairment proxy with this schedule.
  net::ImpairConfig impair;
  // Telemetry sideband: when telemetry_port != 0, one exporter per process
  // streams the metric/span deltas of the nodes it hosts to a collector at
  // 127.0.0.1:telemetry_port.
  uint16_t telemetry_port = 0;
  double telemetry_interval_s = 0.2;
};

// kInProcess: one shared net::Fabric, which FtOptions::injector may fault.
// kSocket: one SocketFabric per node over UDP loopback, which
// FtOptions::impair may route through the impairment proxy.
enum class Transport { kInProcess, kSocket };

// How long a socket wall's rendezvous may take before it fails.
inline constexpr double kRendezvousTimeoutS = 20.0;

// The setup every deployment shares. Construction splits the stream's
// pictures, prewarms the wire pool and initializes the hosts' shared state;
// the launcher then posts credits and runs one host per node it hosts.
struct WallSetup {
  WallSetup(const wall::TileGeometry& geo, int k, std::span<const uint8_t> es,
            const FtOptions& ft);

  const wall::TileGeometry& geo;
  const proto::Topology topo;
  const FtOptions ft;
  const RootSplitter root;
  const std::vector<proto::PictureMeta> metas;
  HostShared shared;
  std::mutex display_mu;
  WallTimer timer;  // the hosts' clock, started when setup finishes

  // Post `node`'s two receive buffers on `fabric` if it is a bulk receiver
  // (splitter or decoder). A credit is local receiver state: posting it
  // before any host starts keeps the root's first dispatch from finding a
  // mailbox empty (in GM this happens during connection establishment).
  void post_credits(net::FabricBackend& fabric, int node);

  // Build the host for `node`'s role over `fabric` and run it: its work,
  // then its resident tail until the fabric shuts down. Raises the role's
  // done-count (HostShared::done_count) between the two.
  void run_host(int node, net::FabricBackend* fabric,
                const TileDisplayFn& on_display);

  // The stats of a finished wall. `backends[n]` is the backend node n ran
  // on; each node's counters and traffic-matrix row come from it, which
  // reads the same for one shared Fabric and for per-node SocketFabrics.
  ClusterStats stats(std::span<net::FabricBackend* const> backends);
};

// The telemetry exporter for the nodes `hosted` in this process, started;
// null when ft.telemetry_port is 0.
std::unique_ptr<obs::TelemetryExporter> start_telemetry(
    const FtOptions& ft, const proto::Topology& topo,
    std::vector<uint16_t> hosted);

// A socket wall's rendezvous listener, serving from construction on. When
// any rate in `impair` is > 0 it hands out the impairment proxy's front
// addresses instead of the real endpoints, so every datagram of the wall —
// the root's own included — takes the lossy path.
class WallRendezvous {
 public:
  WallRendezvous(int nodes, uint16_t port, const net::ImpairConfig& impair,
                 double timeout_s = kRendezvousTimeoutS);

  net::Endpoint endpoint() const { return server_.endpoint(); }
  // Blocks until the listener finished.
  net::RendezvousStatus result() { return server_.result(); }

 private:
  // Declared first, so the proxy outlives the serve thread that creates it.
  std::unique_ptr<net::ImpairProxy> proxy_;
  net::RendezvousServer server_;
};

// Join the rendezvous at `server` as fabric.self() and point the fabric at
// the map it hands out. False on timeout.
bool join_wall(net::SocketFabric& fabric, net::Endpoint server, int nodes,
               double timeout_s = kRendezvousTimeoutS);

// Run a whole wall in this process: one thread per node over `transport`.
// A fault injector on a socket wall, or impairment rates on an in-process
// wall, is a PDW_CHECK failure before any thread starts.
ClusterStats run_wall(const wall::TileGeometry& geo, int k,
                      std::span<const uint8_t> es,
                      const TileDisplayFn& on_display, const FtOptions& ft,
                      Transport transport);

}  // namespace pdw::core
