// Host-speed reference: a fixed, memory-bound kernel that shares no code
// with the decoder, timed right after every timed session.
//
// On a shared VM the memory path drifts by up to 1.7x over seconds to
// minutes while a pure-ALU loop stays within ±7%; a session's wall time and
// this kernel's time move together (correlation ~0.65 per session). Scaling
// each session's timings by `factor()` = kernel time / nominal time turns
// them into timings at the nominal host speed, which is what makes two
// sets of runs comparable. A change to the decoder cannot move the kernel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class HostReference {
 public:
  // Kernel time on an undisturbed 4-core Xeon VM; factor() is 1 there.
  static constexpr double kNominalSeconds = 0.020;

  HostReference();

  // Run the kernel once; returns its wall time in seconds.
  double run();
  // run() / kNominalSeconds.
  double factor() { return run() / kNominalSeconds; }

  // Resident bytes the kernel's buffers add to the process.
  size_t resident_bytes() const { return src_.size() + dst_.size(); }

 private:
  std::vector<uint8_t> src_, dst_;
  uint32_t rng_ = 1;  // block positions continue across runs
};

}  // namespace perfbench
