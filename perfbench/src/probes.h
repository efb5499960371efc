// Instruments that observe the runtime from outside, through its public seams only:
//
//   TimedTransport  a Transport decorator that times PollBatch, TransmitBatch and
//                   ApproxNonEmpty and records one TX span per response;
//   TimeHandler     a ViewHandler wrapper that records one span per handler call;
//   StallProbe      a 1 ms sleeper that records how late the host wakes it;
//   ThreadPlacer    pins threads a library call creates (the generator's);
//   ReadSched       the scheduler's view of a set of threads, from /proc.
//
// Spans and sums land in per-thread buffers (TraceRegistry), so recording takes no
// lock on the data path. Buffers are read only after Runtime::Shutdown has joined
// the threads that wrote them.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/time_units.h"
#include "src/runtime/runtime.h"
#include "src/runtime/transport.h"

namespace perfbench {

using zygos::Nanos;

// One handler call. `kind` is a workload-defined request class (TPC-C type).
struct HandlerSpan {
  uint64_t flow_id = 0;
  Nanos start = 0;
  Nanos end = 0;
  uint8_t kind = 0;
};

// One response leaving the server: `arrival` is the RX stamp of its request
// (TxSegment::arrival), `tx` the time the TransmitBatch carrying it returned.
struct TxSpan {
  uint64_t flow_id = 0;
  uint64_t request_id = 0;
  Nanos arrival = 0;
  Nanos tx = 0;
  uint32_t payload_bytes = 0;
};

// What one runtime thread recorded.
struct ThreadTrace {
  std::vector<HandlerSpan> handler_spans;
  std::vector<TxSpan> tx_spans;
  uint64_t polls = 0;
  uint64_t empty_polls = 0;
  uint64_t busy_poll_ns = 0;   // PollBatch calls that returned segments
  uint64_t empty_poll_ns = 0;  // PollBatch calls that returned none
  uint64_t rx_segments = 0;
  uint64_t tx_calls = 0;  // TransmitBatch calls with at least one response
  uint64_t tx_ns = 0;
  uint64_t tx_responses = 0;
  uint64_t peeks = 0;
  uint64_t peek_ns = 0;
  uint64_t handler_calls = 0;
  uint64_t handler_ns = 0;
};

// Per-cell owner of every thread's buffer. `record_spans` off keeps only the sums
// (the saturation cell, where per-request spans would only measure the backlog).
class TraceRegistry {
 public:
  explicit TraceRegistry(bool record_spans);

  // The calling thread's buffer, created on first use.
  ThreadTrace& Local();
  bool record_spans() const { return record_spans_; }

  // Every buffer, for reading after the writers have been joined.
  const std::vector<std::unique_ptr<ThreadTrace>>& threads() const { return threads_; }

 private:
  const uint64_t id_;
  const bool record_spans_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadTrace>> threads_;
};

class TimedTransport final : public zygos::Transport {
 public:
  TimedTransport(std::unique_ptr<zygos::Transport> inner, TraceRegistry& trace)
      : inner_(std::move(inner)), trace_(trace) {}

  int num_queues() const override { return inner_->num_queues(); }
  int QueueOf(uint64_t flow_id) const override { return inner_->QueueOf(flow_id); }
  const zygos::RssTable& rss() const override { return inner_->rss(); }
  zygos::RssTable& mutable_rss() override { return inner_->mutable_rss(); }
  void Start() override { inner_->Start(); }
  void Stop() override { inner_->Stop(); }
  size_t PollBatch(int queue, std::span<zygos::Segment> out,
                   std::vector<zygos::ControlEvent>& control) override;
  size_t TransmitBatch(int queue, std::span<zygos::TxSegment> batch) override;
  bool ApproxNonEmpty(int queue) const override;
  void CloseFlow(int queue, uint64_t flow_id) override {
    inner_->CloseFlow(queue, flow_id);
  }
  void ReleaseFlowId(uint64_t flow_id) override { inner_->ReleaseFlowId(flow_id); }
  uint64_t Drops() const override { return inner_->Drops(); }
  uint64_t IoSyscalls() const override { return inner_->IoSyscalls(); }

 private:
  std::unique_ptr<zygos::Transport> inner_;
  TraceRegistry& trace_;
};

// Wraps `inner` so every call records a HandlerSpan; `kind_of` classifies the
// request (nullptr: every request is kind 0).
using KindFn = uint8_t (*)(std::string_view request);
zygos::ViewHandler TimeHandler(zygos::ViewHandler inner, TraceRegistry& trace,
                               KindFn kind_of);

// Host stall probe: a thread pinned to `cpu` sleeps 1 ms at a time (absolute
// deadlines, 1 ns timer slack) and records how late each wake-up is. Lateness the
// probe sees is time the host took from every thread on that CPU.
class StallProbe {
 public:
  explicit StallProbe(int cpu);
  ~StallProbe();
  StallProbe(const StallProbe&) = delete;
  StallProbe& operator=(const StallProbe&) = delete;

  // Stops the probe; the histogram is then stable.
  const zygos::LatencyHistogram& Stop();

 private:
  void Run(int cpu);

  std::atomic<bool> stop_{false};
  zygos::LatencyHistogram lateness_;
  std::thread thread_;
};

// Pins the calling thread to `cpus`; aborts if the kernel refuses (a run whose
// placement silently differs from the printed one would be misreported).
void PinSelf(const std::vector<int>& cpus);

// Pins thread `tid` of this process to `cpus`; aborts like PinSelf.
void PinThread(int tid, const std::vector<int>& cpus);

// Thread ids of this process, sorted.
std::vector<int> ListThreads();

// Pins, one CPU each and in order of appearance, the first `cpus.size()` threads that
// start after construction and are not in `known`: how threads created inside a
// library call (RunTcpLoadgen's generators) get a CPU of their own. Stops once all
// are placed, or after one second.
class ThreadPlacer {
 public:
  ThreadPlacer(std::vector<int> known, std::vector<int> cpus);
  ~ThreadPlacer();
  ThreadPlacer(const ThreadPlacer&) = delete;
  ThreadPlacer& operator=(const ThreadPlacer&) = delete;

  // Threads placed so far; call after the placed threads have started.
  size_t Join();

 private:
  std::vector<int> known_;
  std::vector<int> cpus_;
  size_t placed_ = 0;
  std::thread thread_;
};

// Scheduler counters of one thread of this process.
struct SchedSnapshot {
  uint64_t run_ns = 0;        // /proc/self/task/<tid>/schedstat, first field
  uint64_t runq_wait_ns = 0;  // schedstat, second field
  uint64_t ctx_switches = 0;  // voluntary + nonvoluntary, from .../status
};
// One snapshot per thread of `tids`, in order.
std::vector<SchedSnapshot> ReadSched(const std::vector<int>& tids);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
