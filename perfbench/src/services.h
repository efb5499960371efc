// The three services the benchmark serves, each built fresh for every cell, with the
// correctness checks that belong to it: answers checked over the wire on a
// connection of the benchmark's own, and the service's ledger checked after
// Shutdown.
#ifndef PERFBENCH_SERVICES_H_
#define PERFBENCH_SERVICES_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "probes.h"
#include "src/common/rng.h"
#include "src/runtime/runtime.h"

namespace perfbench {

class WireConnection;

using PayloadFactory = std::function<void(zygos::Rng& rng, std::string& out)>;

// Names of the checks that failed, in the order they ran.
using Failures = std::vector<std::string>;

// Per-layer metrics as (name, value, unit).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

class Service {
 public:
  virtual ~Service() = default;

  // The handler the runtime serves.
  virtual zygos::ViewHandler Handler() = 0;
  // The request stream the generator sends (pure function of the generator's Rng).
  virtual PayloadFactory Payloads() const = 0;
  // Request classifier for handler spans (nullptr: one class).
  virtual KindFn Kind() const { return nullptr; }

  // Sends known requests on `conn` and checks each answer's content. Returns the
  // number of requests the server answered.
  virtual uint64_t CheckWire(const WireConnection& conn, Failures& failures) = 0;
  // Checks the service's own ledger once `answered` requests have been served.
  virtual void CheckLedger(uint64_t answered, Failures& failures) const = 0;
  // Application counters for the traced run; `kind_counts` counts handler calls by
  // request class.
  virtual void AppMetrics(uint64_t answered, const std::vector<uint64_t>& kind_counts,
                          Metrics& out) const = 0;
};

// rpc10: 10 µs mean exponential spin, 32 B echo.
std::unique_ptr<Service> MakeSpinEcho(uint64_t seed);
// kv: KvService populated with KvWorkloadSpec::Etc().
std::unique_ptr<Service> MakeKvEtc(uint64_t seed);
// tpcc: TpccService over a freshly loaded 1-warehouse database.
std::unique_ptr<Service> MakeTpcc(uint64_t seed);

// The benchmark's own blocking connection to the server, for the wire checks.
class WireConnection {
 public:
  explicit WireConnection(uint16_t port);
  ~WireConnection();
  WireConnection(const WireConnection&) = delete;
  WireConnection& operator=(const WireConnection&) = delete;

  // One exchange: sends every payload back to back, then reads the answers. Returns
  // the answered payloads in request order; a missing, reordered or unreadable
  // answer is reported in `failures` under `check` and cuts the list short.
  std::vector<std::string> Exchange(const std::vector<std::string>& requests,
                                    const char* check, Failures& failures) const;

 private:
  int fd_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_SERVICES_H_
