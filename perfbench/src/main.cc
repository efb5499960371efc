// perfbench: the live-runtime benchmark.
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//
// Serves one workload from a Runtime over the epoll TcpTransport (2 workers on CPUs
// 1-2) and drives it with RunTcpLoadgen (open loop, Poisson, 4 connections,
// latency timed from the scheduled send) on CPU 3 (and CPU 0 for kv-etc's second
// generator thread). Every cell builds fresh service state and a fresh runtime.
//
// --trace=0 measures the end-to-end metrics: `light` and `busy` fixed-rate cells,
// each repeated, reported as medians. --trace=1 measures the per-layer metrics: the
// same cells once each with the probes of probes.h attached, a saturating `peak`
// cell for the workloads that have one, one untraced `busy` cell for the tracing
// overhead, and the offline replay of replay.h. The last stdout line is one JSON
// object:
//   {"correct": B, "attempted": N, "failed": N, "metrics": {NAME: {"value", "unit"}}}
// A failed correctness check prints its name, sets "correct" false and exits 1.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include <unistd.h>

#include "probes.h"
#include "replay.h"
#include "services.h"
#include "src/common/histogram.h"
#include "src/common/time_units.h"
#include "src/hw/rss.h"
#include "src/loadgen/tcp_loadgen.h"
#include "src/runtime/runtime.h"
#include "src/runtime/tcp_transport.h"

namespace perfbench {
namespace {

using zygos::kMillisecond;
using zygos::LatencyHistogram;

constexpr int kWorkers = 2;
constexpr int kConnections = 4;
const std::vector<int> kServerCpus = {1, 2};
constexpr int kProbeCpu = 0;
// Repetitions of each end-to-end cell; metrics are their medians.
constexpr int kRepeats = 20;

struct Workload {
  const char* name;
  bool skew;                  // the RSS table homes every flow on worker 0
  std::vector<int> gen_cpus;  // one generator thread per CPU
  double light_rps;
  double busy_rps;
  // 0: no saturation cell. kv-etc has none: saturated, its large responses fill the
  // generator's receive buffers and the connections deadlock (perfbench/README.md).
  double peak_offered_rps;
  std::unique_ptr<Service> (*make)(uint64_t seed);
};

// Rates are absolute and fixed (see perfbench/README.md for how they were chosen).
const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> all = {
      {"rpc10-skew", true, {3}, 20'000, 50'000, 160'000, MakeSpinEcho},
      {"kv-etc", false, {3, 0}, 40'000, 100'000, 0, MakeKvEtc},
      {"tpcc", false, {3}, 3'000, 8'000, 30'000, MakeTpcc},
  };
  return all;
}

struct CellPlan {
  std::string label;  // light | busy | peak, plus a suffix for the untraced twin
  double rate = 0;
  Nanos duration = 0;
  bool peak = false;
  bool traced = false;
};

// Sums of every ThreadTrace of one traced cell.
struct TraceSums {
  uint64_t polls = 0, empty_polls = 0, busy_poll_ns = 0, empty_poll_ns = 0;
  uint64_t rx_segments = 0;
  uint64_t tx_calls = 0, tx_ns = 0, tx_responses = 0;
  uint64_t peeks = 0, peek_ns = 0;
  uint64_t handler_calls = 0, handler_ns = 0;
};

// Per-request spans of one traced cell, joined on (flow id, per-flow ordinal):
// per-connection ordering (§4.3) makes a flow's k-th handler call answer its k-th
// transmitted response.
struct SpanStats {
  LatencyHistogram wait, handler, ship, residence;
  std::vector<LatencyHistogram> handler_by_kind = std::vector<LatencyHistogram>(5);
  std::vector<uint64_t> kind_counts = std::vector<uint64_t>(5);
  double wait_ns = 0, handler_ns = 0, ship_ns = 0, residence_ns = 0;
  uint64_t tx_spans = 0, joined = 0;
  std::vector<uint32_t> response_bytes;
};

struct Cell {
  CellPlan plan;
  double setup_s = 0;
  zygos::TcpLoadgenResult gen;
  uint64_t server_completed = 0;
  uint64_t io_syscalls = 0;
  uint64_t stall_drops = 0;  // responses dropped because a client stopped reading
  zygos::WorkerStats stats;
  zygos::ShuffleStats shuffle;
  SchedSnapshot sched;  // server threads' sums over the load window (run_ns unused)
  LatencyHistogram stall;
  Nanos load_wall = 0;  // RunTcpLoadgen start to return
  bool generator_set = false;
  bool host_set = false;
  TraceSums sums;
  SpanStats spans;
  Metrics app;

  double p50_us() const { return zygos::ToMicros(gen.latency.P50()); }
  double p99_us() const { return zygos::ToMicros(gen.latency.P99()); }
};

// count / base, or 0 when nothing was counted in the base.
double Ratio(uint64_t count, uint64_t base) {
  return base > 0 ? static_cast<double>(count) / static_cast<double>(base) : 0.0;
}

// Stands in for the saturation cell of a workload without one: its figures read 0.
const Cell kNoCell{};

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

std::string CpuList(const std::vector<int>& cpus) {
  std::string out;
  for (int cpu : cpus) {
    out += (out.empty() ? "" : ",") + std::to_string(cpu);
  }
  return out;
}

TraceSums Sum(const TraceRegistry& trace) {
  TraceSums s;
  for (const auto& t : trace.threads()) {
    s.polls += t->polls;
    s.empty_polls += t->empty_polls;
    s.busy_poll_ns += t->busy_poll_ns;
    s.empty_poll_ns += t->empty_poll_ns;
    s.rx_segments += t->rx_segments;
    s.tx_calls += t->tx_calls;
    s.tx_ns += t->tx_ns;
    s.tx_responses += t->tx_responses;
    s.peeks += t->peeks;
    s.peek_ns += t->peek_ns;
    s.handler_calls += t->handler_calls;
    s.handler_ns += t->handler_ns;
  }
  return s;
}

SpanStats Join(const TraceRegistry& trace) {
  SpanStats out;
  std::unordered_map<uint64_t, std::vector<HandlerSpan>> handler_by_flow;
  std::unordered_map<uint64_t, std::vector<TxSpan>> tx_by_flow;
  for (const auto& t : trace.threads()) {
    for (const HandlerSpan& h : t->handler_spans) {
      handler_by_flow[h.flow_id].push_back(h);
      if (h.kind < out.kind_counts.size()) {
        out.kind_counts[h.kind]++;
      }
    }
    for (const TxSpan& tx : t->tx_spans) {
      tx_by_flow[tx.flow_id].push_back(tx);
      out.response_bytes.push_back(tx.payload_bytes);
    }
  }
  for (auto& [flow, txs] : tx_by_flow) {
    out.tx_spans += txs.size();
    std::vector<HandlerSpan>& hs = handler_by_flow[flow];
    // A flow's handler calls are serialized and its responses leave in order from
    // its home core, so start time and TX time each give the per-flow ordinal.
    std::sort(hs.begin(), hs.end(),
              [](const HandlerSpan& a, const HandlerSpan& b) { return a.start < b.start; });
    std::stable_sort(txs.begin(), txs.end(),
                     [](const TxSpan& a, const TxSpan& b) { return a.tx < b.tx; });
    for (size_t k = 0; k < std::min(hs.size(), txs.size()); ++k) {
      const HandlerSpan& h = hs[k];
      const TxSpan& tx = txs[k];
      if (!(tx.arrival <= h.start && h.start <= h.end && h.end <= tx.tx)) {
        continue;  // not the same request: the join key failed
      }
      out.joined++;
      out.wait.Record(h.start - tx.arrival);
      out.handler.Record(h.end - h.start);
      out.ship.Record(tx.tx - h.end);
      out.residence.Record(tx.tx - tx.arrival);
      if (h.kind < out.handler_by_kind.size()) {
        out.handler_by_kind[h.kind].Record(h.end - h.start);
      }
      out.wait_ns += static_cast<double>(h.start - tx.arrival);
      out.handler_ns += static_cast<double>(h.end - h.start);
      out.ship_ns += static_cast<double>(tx.tx - h.end);
      out.residence_ns += static_cast<double>(tx.tx - tx.arrival);
    }
  }
  return out;
}

// One cell: fresh service, fresh runtime, one RunTcpLoadgen, correctness checks.
Cell RunCell(const Workload& w, const CellPlan& plan, uint64_t seed, uint64_t cell_seed,
             Failures& failures) {
  Cell cell;
  cell.plan = plan;
  PinSelf(w.gen_cpus);
  Nanos t0 = zygos::NowNanos();
  std::unique_ptr<Service> service = w.make(seed);

  zygos::RuntimeOptions options;
  options.num_workers = kWorkers;
  options.num_flows = kConnections;
  auto tcp = std::make_unique<zygos::TcpTransport>(zygos::TcpOptionsFor(options));
  zygos::TcpTransport* sock = tcp.get();
  std::unique_ptr<zygos::Transport> transport = std::move(tcp);
  zygos::ViewHandler handler = service->Handler();
  std::unique_ptr<TraceRegistry> trace;
  if (plan.traced) {
    trace = std::make_unique<TraceRegistry>(/*record_spans=*/!plan.peak);
    transport = std::make_unique<TimedTransport>(std::move(transport), *trace);
    handler = TimeHandler(std::move(handler), *trace, service->Kind());
  }
  zygos::Runtime runtime(options, std::move(transport), std::move(handler));
  if (w.skew) {
    runtime.mutable_rss().SetIndirection(
        std::vector<int>(static_cast<size_t>(options.num_flow_groups), 0));
  }
  // Workers (and the acceptor) inherit the calling thread's affinity; then each
  // worker, told from the idle acceptor by the CPU it burns polling, gets a CPU of
  // its own.
  PinSelf(kServerCpus);
  std::vector<int> before = ListThreads();
  runtime.Start();
  std::vector<int> server_threads;
  for (int tid : ListThreads()) {
    if (!std::binary_search(before.begin(), before.end(), tid)) {
      server_threads.push_back(tid);
    }
  }
  PinSelf(w.gen_cpus);
  // Placement is the benchmark's own work, not the program's: kept out of setup_s.
  Nanos placement_start = zygos::NowNanos();
  usleep(20'000);
  std::vector<SchedSnapshot> sched = ReadSched(server_threads);
  std::vector<std::pair<uint64_t, int>> busiest;  // (CPU time, tid)
  for (size_t i = 0; i < server_threads.size(); ++i) {
    busiest.emplace_back(sched[i].run_ns, server_threads[i]);
  }
  std::sort(busiest.rbegin(), busiest.rend());
  for (size_t i = 0; i < kServerCpus.size() && i < busiest.size(); ++i) {
    PinThread(busiest[i].second, {kServerCpus[i]});
  }
  t0 += zygos::NowNanos() - placement_start;
  uint64_t wire_answered = service->CheckWire(WireConnection(sock->port()), failures);
  cell.setup_s = static_cast<double>(zygos::NowNanos() - t0) / 1e9;
  // Let the checked connection's flow id go back to the transport before the
  // generator connects: its connections then get ids 0-3, and so the same homes,
  // in every cell. Under uniform RSS ids 0-3 hash 3 + 1 onto the two workers.
  for (Nanos deadline = zygos::NowNanos() + zygos::kSecond;
       runtime.OpenFlows() != 0 && zygos::NowNanos() < deadline;) {
    usleep(100);
  }
  usleep(1000);  // the id is released just after the slot is counted free

  zygos::TcpLoadgenOptions gen;
  gen.port = sock->port();
  gen.connections = kConnections;
  gen.threads = static_cast<int>(w.gen_cpus.size());
  gen.rate_rps = plan.rate;
  gen.duration = plan.duration;
  gen.warmup = std::max<Nanos>(100 * kMillisecond, plan.duration / 5);
  gen.seed = cell_seed;
  gen.make_payload = service->Payloads();

  std::vector<SchedSnapshot> sched0 = ReadSched(server_threads);
  {
    StallProbe probe(kProbeCpu);
    ThreadPlacer placer(ListThreads(), w.gen_cpus);
    Nanos g0 = zygos::NowNanos();
    cell.gen = zygos::RunTcpLoadgen(gen);
    cell.load_wall = zygos::NowNanos() - g0;
    cell.stall = probe.Stop();
    if (placer.Join() != w.gen_cpus.size()) {
      failures.push_back("generator_threads_placed");
    }
  }
  std::vector<SchedSnapshot> sched1 = ReadSched(server_threads);
  for (size_t i = 0; i < server_threads.size(); ++i) {
    cell.sched.runq_wait_ns += sched1[i].runq_wait_ns - sched0[i].runq_wait_ns;
    cell.sched.ctx_switches += sched1[i].ctx_switches - sched0[i].ctx_switches;
  }
  // The answers must still be right after the load.
  wire_answered += service->CheckWire(WireConnection(sock->port()), failures);
  runtime.Shutdown();

  cell.server_completed = runtime.Completed();
  cell.io_syscalls = runtime.transport().IoSyscalls();
  cell.stall_drops = sock->StallDrops();
  cell.stats = runtime.TotalStats();
  cell.shuffle = runtime.TotalShuffleStats();

  const zygos::TcpLoadgenResult& g = cell.gen;
  if (g.completed + g.shed + g.lost != g.sent) {
    failures.push_back("completed_plus_shed_plus_lost_eq_sent");
  }
  if (g.mismatches != 0) {
    failures.push_back("zero_ordering_mismatches");
  }
  if (g.lost == 0 && g.completed + g.shed + wire_answered != cell.server_completed) {
    failures.push_back("client_received_eq_server_completed");
  }
  // Requests left queued on a connection that closed are retired unanswered.
  service->CheckLedger(cell.server_completed - cell.stats.events_refused, failures);

  // Validity: a tail the generator's lateness or one host stall could have produced
  // by itself is not the server's. At saturation the generator must out-offer the
  // server, or the peak it reports is the generator's.
  if (plan.peak) {
    double offered = static_cast<double>(g.sent) * 1e9 / static_cast<double>(plan.duration);
    cell.generator_set = offered < 1.05 * g.achieved_rps();
  } else {
    cell.generator_set = g.max_send_lag >= g.latency.P99();
    cell.host_set = cell.stall.Max() >= g.latency.P99();
  }

  if (trace) {
    cell.sums = Sum(*trace);
    cell.spans = Join(*trace);
    service->AppMetrics(cell.server_completed, cell.spans.kind_counts, cell.app);
  }

  std::printf(
      "# cell %-13s offered=%.0f achieved=%.0f sent=%" PRIu64 " lost=%" PRIu64
      " stall_drops=%" PRIu64
      " p50=%.1fus p99=%.1fus samples=%" PRIu64 " send_lag_max=%.1fus"
      " stall_max=%.1fus steals=%" PRIu64 " setup=%.4fs%s%s\n",
      plan.label.c_str(), plan.rate, g.achieved_rps(), g.sent, g.lost, cell.stall_drops,
      cell.p50_us(),
      cell.p99_us(), g.measured, zygos::ToMicros(g.max_send_lag),
      zygos::ToMicros(cell.stall.Max()), cell.shuffle.steals, cell.setup_s,
      !cell.generator_set ? ""
      : plan.peak         ? " [peak set by generator]"
                          : " [tail set by generator]",
      cell.host_set ? " [tail set by host stall]" : "");
  std::fflush(stdout);
  return cell;
}

void Add(Metrics& out, std::string name, double value, const char* unit) {
  out.push_back({std::move(name), value, unit});
}

Metrics EndToEnd(const std::vector<Cell>& cells) {
  std::vector<double> setup;
  std::unordered_map<std::string, std::vector<double>> p50;
  for (const Cell& c : cells) {
    setup.push_back(c.setup_s);
    p50[c.plan.label].push_back(c.p50_us());
  }
  Metrics out;
  Add(out, "p50_us.light", Median(p50["light"]), "us");
  Add(out, "p50_us.busy", Median(p50["busy"]), "us");
  Add(out, "setup_s", Median(setup), "s");
  return out;
}

const char* const kTpccKinds[] = {"neworder", "payment", "orderstatus", "delivery",
                                  "stocklevel"};

Metrics PerLayer(const Workload& w, const Cell& light, const Cell& busy_untraced,
                 const Cell& busy, const Cell& peak, const ReplayResult& replay) {
  Metrics out;
  const TraceSums& s = busy.sums;
  const SpanStats& sp = busy.spans;
  uint64_t done = busy.server_completed;
  uint64_t events = busy.stats.app_events;

  Add(out, "transport.syscalls_per_req.light",
      Ratio(light.io_syscalls, light.server_completed), "count");
  Add(out, "transport.syscalls_per_req.peak",
      Ratio(peak.io_syscalls, peak.server_completed), "count");
  Add(out, "transport.rx_ns_per_seg", Ratio(s.busy_poll_ns, s.rx_segments), "ns");
  Add(out, "transport.empty_poll_frac", Ratio(s.empty_polls, s.polls), "fraction");
  Add(out, "transport.tx_ns_per_resp", Ratio(s.tx_ns, s.tx_responses), "ns");
  Add(out, "transport.tx_batch", Ratio(s.tx_responses, s.tx_calls), "count");
  Add(out, "transport.peeks_per_req", Ratio(s.peeks, done), "count");

  Add(out, "net.parse_ns_per_msg", replay.parse_ns_per_msg, "ns");
  Add(out, "net.build_ns_per_resp", replay.build_ns_per_resp, "ns");
  Add(out, "pool.heap_allocs_per_req", Ratio(busy.stats.pool_misses, events), "count");
  Add(out, "pool.remote_frees_per_req", Ratio(busy.stats.pool_remote_frees, events),
      "count");

  const zygos::ShuffleStats& sh = busy.shuffle;
  Add(out, "shuffle.steals_per_kreq", 1000.0 * Ratio(sh.steals, events), "count");
  Add(out, "shuffle.failed_probe_frac",
      Ratio(sh.failed_steal_probes, sh.steals + sh.failed_steal_probes), "fraction");
  Add(out, "shuffle.claim_ns", replay.claim_ns, "ns");
  Add(out, "shuffle.steal_ns", replay.steal_ns, "ns");

  Add(out, "exec.stolen_frac", Ratio(busy.stats.stolen_events, events), "fraction");
  Add(out, "exec.remote_syscalls_per_req", Ratio(busy.stats.remote_syscalls, events),
      "count");
  Add(out, "exec.doorbells_per_req", Ratio(busy.stats.doorbells_sent, events), "count");
  Add(out, "exec.wait_us.p50", zygos::ToMicros(sp.wait.P50()), "us");
  Add(out, "exec.wait_us.p99", zygos::ToMicros(sp.wait.P99()), "us");
  Add(out, "exec.ship_us.p50", zygos::ToMicros(sp.ship.P50()), "us");
  Add(out, "exec.ship_us.p99", zygos::ToMicros(sp.ship.P99()), "us");
  Add(out, "exec.residence_us.p50", zygos::ToMicros(sp.residence.P50()), "us");
  Add(out, "exec.residence_us.p99", zygos::ToMicros(sp.residence.P99()), "us");
  double residence = sp.residence_ns > 0 ? sp.residence_ns : 1.0;
  Add(out, "exec.wait_share", sp.wait_ns / residence, "fraction");
  Add(out, "exec.handler_share", sp.handler_ns / residence, "fraction");
  Add(out, "exec.ship_share", sp.ship_ns / residence, "fraction");
  // Saturation: completions per second; the share of worker time spent polling and
  // finding nothing (near 0 when the server, not the generator, sets the peak); and
  // worker time spent neither in the transport nor in the handler, per request:
  // scheduling, parsing, claiming, shipping. Below saturation that remainder would
  // be mostly the idle loop, so it is taken at saturation only.
  const TraceSums& ps = peak.sums;
  double worker_ns = static_cast<double>(kWorkers) * static_cast<double>(peak.load_wall);
  double accounted = static_cast<double>(ps.busy_poll_ns + ps.empty_poll_ns + ps.tx_ns +
                                         ps.peek_ns + ps.handler_ns);
  Add(out, "peak_rps", peak.gen.achieved_rps(), "1/s");
  Add(out, "exec.idle_frac.peak",
      worker_ns > 0 ? static_cast<double>(ps.empty_poll_ns + ps.peek_ns) / worker_ns : 0.0,
      "fraction");
  Add(out, "exec.overhead_ns_per_req",
      peak.server_completed > 0
          ? (worker_ns - accounted) / static_cast<double>(peak.server_completed)
          : 0.0,
      "ns");

  Add(out, "app.handler_us.p50", zygos::ToMicros(sp.handler.P50()), "us");
  Add(out, "app.handler_us.p99", zygos::ToMicros(sp.handler.P99()), "us");
  bool tpcc = std::strcmp(w.name, "tpcc") == 0;
  for (size_t k = 0; k < 5; ++k) {
    Add(out, std::string("app.") + kTpccKinds[k] + "_us.p50",
        tpcc ? zygos::ToMicros(sp.handler_by_kind[k].P50()) : 0.0, "us");
  }
  for (const char* name : {"db.occ_retries_per_txn", "db.user_abort_frac", "kv.hit_frac"}) {
    auto it = std::find_if(busy.app.begin(), busy.app.end(),
                           [name](const Metric& m) { return m.name == name; });
    Add(out, name, it != busy.app.end() ? it->value : 0.0,
        std::strcmp(name, "db.occ_retries_per_txn") == 0 ? "count" : "fraction");
  }

  Add(out, "loadgen.send_lag_max_us", zygos::ToMicros(busy.gen.max_send_lag), "us");
  Add(out, "host.stall_max_us", zygos::ToMicros(busy.stall.Max()), "us");
  Add(out, "host.stall_p99_us", zygos::ToMicros(busy.stall.P99()), "us");
  Add(out, "host.worker_runq_wait_ms", static_cast<double>(busy.sched.runq_wait_ns) / 1e6,
      "ms");
  Add(out, "host.ctx_switches_per_req", Ratio(busy.sched.ctx_switches, done), "count");
  Add(out, "net_residue_us.p50", busy.p50_us() - zygos::ToMicros(sp.residence.P50()), "us");
  Add(out, "trace.overhead_frac",
      busy_untraced.p50_us() > 0 ? busy.p50_us() / busy_untraced.p50_us() - 1.0 : 0.0,
      "fraction");
  Add(out, "trace.joined_frac", Ratio(sp.joined, sp.tx_spans), "fraction");
  // Client tails: too host-dependent to bound (perfbench/README.md), so reported
  // here beside the host stall figures that explain them, from untraced cells
  // where there is one.
  Add(out, "p99_us.light", light.p99_us(), "us");
  Add(out, "p99_us.busy", busy_untraced.p99_us(), "us");
  Add(out, "samples.light", static_cast<double>(light.gen.measured), "count");
  Add(out, "samples.busy", static_cast<double>(busy.gen.measured), "count");
  return out;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed, const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload=rpc10-skew|kv-etc|tpcc --seed=N "
               "--seconds=S --trace=0|1\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload_name;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      return Usage();
    }
    std::string key = arg.substr(2, eq - 2);
    std::string value = arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "workload") {
      workload_name = value;
    } else if (key == "seed") {
      seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "seconds") {
      seconds = std::strtod(value.c_str(), &end);
    } else if (key == "trace") {
      trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else {
      return Usage();
    }
    if (end != nullptr && *end != '\0') {
      return Usage();
    }
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : Workloads()) {
    if (workload_name == candidate.name) {
      w = &candidate;
    }
  }
  if (w == nullptr || seconds <= 0 || (trace != 0 && trace != 1)) {
    return Usage();
  }
  if (sysconf(_SC_NPROCESSORS_ONLN) < 4) {
    std::fprintf(stderr, "perfbench: needs CPUs 0-3 (workers 1-2, generator 3)\n");
    return 2;
  }
  std::printf("# placement: workers cpus %s (inherited from Runtime::Start), "
              "generator cpus %s (one thread each), stall probe cpu %d\n",
              CpuList(kServerCpus).c_str(), CpuList(w->gen_cpus).c_str(), kProbeCpu);

  const Nanos total = static_cast<Nanos>(seconds * 1e9);
  std::vector<CellPlan> plans;
  if (trace == 0) {
    // Interleaved so slow drift in the host hits every cell alike.
    Nanos each = total / (2 * kRepeats);
    for (int r = 0; r < kRepeats; ++r) {
      plans.push_back({"light", w->light_rps, each, false, false});
      plans.push_back({"busy", w->busy_rps, each, false, false});
    }
  } else {
    // The backlog a saturation cell builds must drain well inside the generator's
    // drain timeout, and TPC-C slows as the cell's NewOrders grow its tables: the
    // peak cell gets at most 2 s.
    Nanos peak = w->peak_offered_rps > 0 ? std::min<Nanos>(total / 4, 2 * zygos::kSecond) : 0;
    Nanos each = (total - peak) / 3;
    plans.push_back({"light", w->light_rps, each, false, true});
    plans.push_back({"busy-untraced", w->busy_rps, each, false, false});
    plans.push_back({"busy", w->busy_rps, each, false, true});
    if (peak > 0) {
      plans.push_back({"peak", w->peak_offered_rps, peak, true, true});
    }
  }

  Failures failures;
  std::vector<Cell> cells;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (size_t i = 0; i < plans.size(); ++i) {
    cells.push_back(RunCell(*w, plans[i], seed, seed * 1000 + i, failures));
    const zygos::TcpLoadgenResult& g = cells.back().gen;
    attempted += g.sent;
    failed += g.lost + g.shed + g.mismatches;
  }
  std::vector<std::string> distinct = failures;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  for (const std::string& name : distinct) {
    std::printf("# FAILED check: %s\n", name.c_str());
  }
  failed += failures.size();

  Metrics metrics;
  if (trace == 0) {
    metrics = EndToEnd(cells);
  } else {
    const Cell& busy = cells[2];
    std::unique_ptr<Service> service = w->make(seed);  // owns what the factory reads
    ReplayInput input;
    input.payloads = service->Payloads();
    input.seed = seed;
    input.frames_per_segment = static_cast<size_t>(
        Ratio(busy.sums.handler_calls, busy.sums.rx_segments) + 0.5);
    input.response_bytes = busy.spans.response_bytes;
    // The generator's connections are flows 0-3 (see RunCell), homed as the
    // runtime's default RSS table or the skewed one homes them.
    zygos::RssTable rss(zygos::RuntimeOptions().num_flow_groups, kWorkers);
    for (int flow = 0; flow < kConnections; ++flow) {
      input.homes.push_back(w->skew ? 0 : rss.HomeCoreOf(static_cast<uint64_t>(flow)));
    }
    ReplayResult replay = Replay(input);
    metrics = PerLayer(*w, cells[0], cells[1], busy,
                       cells.size() > 3 ? cells[3] : kNoCell, replay);
    int flagged = 0;
    for (const Cell& c : cells) {
      flagged += (c.generator_set || c.host_set) ? 1 : 0;
    }
    Add(metrics, "cells_flagged", flagged, "count");
    Add(metrics, "fail_frac",
        attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0,
        "fraction");
  }
  PrintResult(failures.empty(), std::max<uint64_t>(attempted, 1), failed, metrics);
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
