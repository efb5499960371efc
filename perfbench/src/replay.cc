#include "replay.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>

#include "src/common/buffer_pool.h"
#include "src/common/time_units.h"
#include "src/core/shuffle_layer.h"
#include "src/net/message.h"
#include "src/net/pcb.h"

namespace perfbench {
namespace {

constexpr size_t kMessages = 20000;
constexpr int kPasses = 5;

// Median over passes of one timed pass's ns per operation.
template <typename Pass>
double MedianNsPerOp(size_t ops, Pass&& pass) {
  std::vector<double> per_op;
  for (int i = 0; i < kPasses; ++i) {
    Nanos start = zygos::NowNanos();
    pass();
    per_op.push_back(static_cast<double>(zygos::NowNanos() - start) /
                     static_cast<double>(ops));
  }
  std::sort(per_op.begin(), per_op.end());
  return per_op[per_op.size() / 2];
}

}  // namespace

ReplayResult Replay(const ReplayInput& input) {
  ReplayResult result;

  // The workload's request stream, framed as the generator frames it and grouped
  // into RX segments of the observed frames-per-segment.
  zygos::Rng rng(input.seed ^ 0x7e91a7);
  std::vector<std::string> payloads(kMessages);
  std::vector<zygos::IoBuf> segments;
  std::string wire;
  size_t per_segment = std::max<size_t>(1, input.frames_per_segment);
  for (size_t i = 0; i < kMessages; ++i) {
    input.payloads(rng, payloads[i]);
    zygos::EncodeMessage(i, payloads[i], wire);
    if ((i + 1) % per_segment == 0 || i + 1 == kMessages) {
      zygos::IoBuf segment = zygos::AllocBuffer(wire.size());
      std::memcpy(segment.data(), wire.data(), wire.size());
      segment.set_size(wire.size());
      segments.push_back(std::move(segment));
      wire.clear();
    }
  }

  std::vector<zygos::MessageView> views;
  views.reserve(kMessages);
  result.parse_ns_per_msg = MedianNsPerOp(kMessages, [&] {
    zygos::FrameParser parser;
    views.clear();
    for (const zygos::IoBuf& segment : segments) {
      parser.Feed(segment, segment.view());
      parser.TakeViewsInto(views);
    }
  });

  if (!input.response_bytes.empty()) {
    uint32_t largest =
        *std::max_element(input.response_bytes.begin(), input.response_bytes.end());
    std::string source(largest, 'r');
    result.build_ns_per_resp = MedianNsPerOp(kMessages, [&] {
      for (size_t i = 0; i < kMessages; ++i) {
        zygos::ResponseBuilder builder(payloads[i].size());
        builder.Append(std::string_view(
            source.data(), input.response_bytes[i % input.response_bytes.size()]));
        zygos::IoBuf frame = builder.Finish(i);
      }
    });
  }

  // Shuffle layer, two cores, the workload's connections and homes. Each request is
  // queued on its connection and claimed once: by the home core, then by the other
  // core as a thief.
  zygos::ShuffleLayer shuffle(2);
  std::vector<std::unique_ptr<zygos::Pcb>> pcbs;
  for (size_t c = 0; c < input.homes.size(); ++c) {
    pcbs.push_back(std::make_unique<zygos::Pcb>(c, input.homes[c]));
  }
  auto claim_all = [&](bool steal) {
    for (size_t i = 0; i < views.size(); ++i) {
      zygos::Pcb* pcb = pcbs[i % pcbs.size()].get();
      pcb->PushEvent(zygos::PcbEvent{views[i].request_id, 0, 0, views[i], 0,
                                     zygos::ShedKind::kNone});
      shuffle.NotifyPending(pcb);
      int home = pcb->home_core();
      zygos::Pcb* claimed =
          steal ? shuffle.TrySteal(1 - home, home) : shuffle.DequeueLocal(home);
      if (claimed == nullptr) {
        claimed = shuffle.DequeueLocal(home);  // keep the layer consistent
      }
      while (claimed->PopEvent()) {
      }
      shuffle.CompleteExecution(claimed);
    }
  };
  result.claim_ns = MedianNsPerOp(views.size(), [&] { claim_all(false); });
  result.steal_ns = MedianNsPerOp(views.size(), [&] { claim_all(true); });
  return result;
}

}  // namespace perfbench
