// Offline replay of one workload's own traffic through the layers the live run
// cannot time from outside without perturbing them: frame parsing (FrameParser),
// response building (ResponseBuilder) and the shuffle layer's claim and steal paths
// (ShuffleLayer). The request stream comes from the workload's seeded payload
// factory, the segment grouping and the response sizes from its traced cell, so the
// ns/op figures describe the traffic the end-to-end numbers come from.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <vector>

#include "services.h"

namespace perfbench {

struct ReplayInput {
  PayloadFactory payloads;
  uint64_t seed = 0;
  size_t frames_per_segment = 1;          // as observed on the traced cell
  std::vector<uint32_t> response_bytes;  // payload sizes observed at TX
  std::vector<int> homes;  // home core (0 or 1) of each connection
};

struct ReplayResult {
  double parse_ns_per_msg = 0;
  double build_ns_per_resp = 0;
  double claim_ns = 0;  // NotifyPending + DequeueLocal + CompleteExecution, home core
  double steal_ns = 0;  // NotifyPending + TrySteal + CompleteExecution, remote core
};

ReplayResult Replay(const ReplayInput& input);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
