// Per-node flight recorder: a bounded black box dumped on bad news.
//
// When configured (wall_node --flight-dir), the recorder keeps the last N
// wire events (every message the hosts send or receive, stamped with the
// tracer clock) in a small ring; on a trigger it writes one JSON file with
// the tail of the span tracer, the wire ring and a full metrics snapshot.
// Triggers: a DeathNotice arriving or being declared (src/core/hosts.cpp),
// a fatal signal (install_signal_handlers), or an explicit dump(). Disabled
// it costs one relaxed atomic load per hook.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace pdw::obs {

class FlightRecorder {
 public:
  struct Config {
    std::string dir;         // where dumps land; empty keeps it disabled
    int node = -1;           // proto node id stamped into dump filenames
    size_t max_wire = 256;   // wire-event ring capacity
    size_t max_spans = 512;  // span tail kept per dump
    size_t max_dumps = 8;    // later triggers are dropped
    MetricsRegistry* metrics = nullptr;  // nullptr: global()
    Tracer* tracer = nullptr;            // nullptr: Tracer::global()
  };

  // Arm the recorder. Enables the tracer (modest ring) if it is off —
  // a post-mortem with no spans is useless.
  void configure(const Config& cfg);
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Record one wire event (hot path; cheap no-op when disabled). `aux` is
  // the message's aux word — the picture index for picture/SP traffic.
  void note_wire(bool tx, int self, int peer, int msg_type, uint32_t seq,
                 uint32_t aux, size_t bytes) {
    if (!enabled()) return;
    note_wire_slow(tx, self, peer, msg_type, seq, aux, bytes);
  }

  // Write a dump (rate-limited by max_dumps). Returns the path written, or
  // empty if disabled / over the dump budget / I/O failed. Async-signal
  // use: dump() allocates and locks — acceptable for our fatal-signal
  // paths, where the alternative is no artifact at all.
  std::string dump(const std::string& reason);

  // Dump on SIGTERM / SIGINT / SIGSEGV / SIGABRT, then re-raise with the
  // default handler so the exit status is preserved.
  static void install_signal_handlers();

  uint64_t dumps_written() const;

  static FlightRecorder& global();

 private:
  struct WireEvent {
    uint64_t t_ns = 0;
    uint32_t seq = 0;
    uint32_t aux = 0;
    uint32_t bytes = 0;
    int16_t self = -1;
    int16_t peer = -1;
    uint8_t msg_type = 0;
    bool tx = false;
  };

  void note_wire_slow(bool tx, int self, int peer, int msg_type, uint32_t seq,
                      uint32_t aux, size_t bytes);
  Tracer& tracer() const;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  Config cfg_;
  std::vector<WireEvent> wire_;  // ring
  uint64_t wire_written_ = 0;
  uint64_t dumps_ = 0;
};

}  // namespace pdw::obs
