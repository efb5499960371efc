#include "probes.h"

#include <dirent.h>
#include <sched.h>
#include <sys/prctl.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

namespace perfbench {
namespace {

std::atomic<uint64_t> next_registry_id{1};

Nanos MonotonicNanos() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<Nanos>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

TraceRegistry::TraceRegistry(bool record_spans)
    : id_(next_registry_id.fetch_add(1)), record_spans_(record_spans) {}

ThreadTrace& TraceRegistry::Local() {
  // Keyed by registry id, not address: a later cell's registry may reuse the memory.
  thread_local uint64_t owner = 0;
  thread_local ThreadTrace* local = nullptr;
  if (owner != id_) {
    std::lock_guard<std::mutex> lock(mutex_);
    threads_.push_back(std::make_unique<ThreadTrace>());
    local = threads_.back().get();
    owner = id_;
  }
  return *local;
}

size_t TimedTransport::PollBatch(int queue, std::span<zygos::Segment> out,
                                 std::vector<zygos::ControlEvent>& control) {
  Nanos start = zygos::NowNanos();
  size_t n = inner_->PollBatch(queue, out, control);
  Nanos took = zygos::NowNanos() - start;
  ThreadTrace& t = trace_.Local();
  t.polls++;
  if (n == 0) {
    t.empty_polls++;
    t.empty_poll_ns += static_cast<uint64_t>(took);
    return n;
  }
  t.busy_poll_ns += static_cast<uint64_t>(took);
  t.rx_segments += n;
  return n;
}

size_t TimedTransport::TransmitBatch(int queue, std::span<zygos::TxSegment> batch) {
  ThreadTrace& t = trace_.Local();
  size_t first = t.tx_spans.size();
  if (trace_.record_spans()) {
    // Copied before the call: the inner transport may consume the frames.
    for (const zygos::TxSegment& tx : batch) {
      t.tx_spans.push_back(TxSpan{tx.flow_id, tx.request_id, tx.arrival, 0,
                                  static_cast<uint32_t>(tx.payload().size())});
    }
  }
  Nanos start = zygos::NowNanos();
  size_t n = inner_->TransmitBatch(queue, batch);
  Nanos end = zygos::NowNanos();
  for (size_t i = first; i < t.tx_spans.size(); ++i) {
    t.tx_spans[i].tx = end;
  }
  if (!batch.empty()) {
    t.tx_calls++;
    t.tx_ns += static_cast<uint64_t>(end - start);
    t.tx_responses += batch.size();
  }
  return n;
}

bool TimedTransport::ApproxNonEmpty(int queue) const {
  Nanos start = zygos::NowNanos();
  bool non_empty = inner_->ApproxNonEmpty(queue);
  Nanos took = zygos::NowNanos() - start;
  ThreadTrace& t = trace_.Local();
  t.peeks++;
  t.peek_ns += static_cast<uint64_t>(took);
  return non_empty;
}

zygos::ViewHandler TimeHandler(zygos::ViewHandler inner, TraceRegistry& trace,
                               KindFn kind_of) {
  return [inner = std::move(inner), &trace, kind_of](
             uint64_t flow_id, std::string_view request,
             zygos::ResponseBuilder& response) {
    uint8_t kind = kind_of != nullptr ? kind_of(request) : 0;
    Nanos start = zygos::NowNanos();
    inner(flow_id, request, response);
    Nanos end = zygos::NowNanos();
    ThreadTrace& t = trace.Local();
    t.handler_calls++;
    t.handler_ns += static_cast<uint64_t>(end - start);
    if (trace.record_spans()) {
      t.handler_spans.push_back(HandlerSpan{flow_id, start, end, kind});
    }
  };
}

StallProbe::StallProbe(int cpu) : thread_([this, cpu] { Run(cpu); }) {}

StallProbe::~StallProbe() { Stop(); }

const zygos::LatencyHistogram& StallProbe::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) {
    thread_.join();
  }
  return lateness_;
}

void StallProbe::Run(int cpu) {
  PinSelf({cpu});
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  constexpr Nanos kPeriod = zygos::kMillisecond;
  Nanos due = MonotonicNanos() + kPeriod;
  while (!stop_.load(std::memory_order_relaxed)) {
    timespec ts{static_cast<time_t>(due / 1'000'000'000),
                static_cast<long>(due % 1'000'000'000)};
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
    }
    Nanos now = MonotonicNanos();
    lateness_.Record(now - due);
    // Re-anchor on the actual wake-up: one long stall is one late sample, not a
    // burst of catch-up samples with no sleep between them.
    due = now + kPeriod;
  }
}

void PinThread(int tid, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) {
    CPU_SET(cpu, &set);
  }
  if (sched_setaffinity(tid, sizeof set, &set) != 0) {
    std::fprintf(stderr, "perfbench: sched_setaffinity(%d) failed: %s\n", tid,
                 std::strerror(errno));
    std::abort();
  }
}

void PinSelf(const std::vector<int>& cpus) { PinThread(0, cpus); }

ThreadPlacer::ThreadPlacer(std::vector<int> known, std::vector<int> cpus)
    : known_(std::move(known)), cpus_(std::move(cpus)) {
  thread_ = std::thread([this] {
    known_.push_back(static_cast<int>(gettid()));
    std::sort(known_.begin(), known_.end());
    Nanos deadline = MonotonicNanos() + zygos::kSecond;
    while (placed_ < cpus_.size() && MonotonicNanos() < deadline) {
      for (int tid : ListThreads()) {
        if (placed_ < cpus_.size() &&
            !std::binary_search(known_.begin(), known_.end(), tid)) {
          PinThread(tid, {cpus_[placed_++]});
          known_.insert(std::upper_bound(known_.begin(), known_.end(), tid), tid);
        }
      }
      usleep(50);
    }
  });
}

ThreadPlacer::~ThreadPlacer() { Join(); }

size_t ThreadPlacer::Join() {
  if (thread_.joinable()) {
    thread_.join();
  }
  return placed_;
}

std::vector<int> ListThreads() {
  std::vector<int> tids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) {
    return tids;
  }
  while (dirent* entry = readdir(dir)) {
    if (entry->d_name[0] != '.') {
      tids.push_back(std::atoi(entry->d_name));
    }
  }
  closedir(dir);
  std::sort(tids.begin(), tids.end());
  return tids;
}

std::vector<SchedSnapshot> ReadSched(const std::vector<int>& tids) {
  std::vector<SchedSnapshot> snaps;
  for (int tid : tids) {
    SchedSnapshot& snap = snaps.emplace_back();
    std::string base = "/proc/self/task/" + std::to_string(tid);
    std::ifstream schedstat(base + "/schedstat");
    schedstat >> snap.run_ns >> snap.runq_wait_ns;
    std::ifstream status(base + "/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("voluntary_ctxt_switches:", 0) == 0 ||
          line.rfind("nonvoluntary_ctxt_switches:", 0) == 0) {
        snap.ctx_switches += std::stoull(line.substr(line.find(':') + 1));
      }
    }
  }
  return snaps;
}

}  // namespace perfbench
