#include "services.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <optional>

#include "src/common/distribution.h"
#include "src/db/database.h"
#include "src/db/tpcc_loader.h"
#include "src/kvstore/protocol.h"
#include "src/kvstore/service.h"
#include "src/kvstore/workload.h"
#include "src/loadgen/spin_service.h"
#include "src/loadgen/tpcc_gen.h"
#include "src/net/message.h"
#include "src/services/tpcc_service.h"

namespace perfbench {
namespace {

using zygos::Rng;

// Fills `out` with `size` seeded printable bytes.
void FillBytes(Rng& rng, size_t size, std::string& out) {
  out.resize(size);
  for (char& c : out) {
    c = static_cast<char>('a' + rng.NextBounded(26));
  }
}

class SpinEcho final : public Service {
 public:
  static constexpr size_t kPayloadBytes = 32;

  explicit SpinEcho(uint64_t seed)
      : handler_(zygos::MakeSpinService(
            std::make_shared<zygos::ExponentialDistribution>(10 * zygos::kMicrosecond),
            zygos::ServiceMode::kSpin, seed)),
        seed_(seed) {}

  zygos::ViewHandler Handler() override { return handler_; }
  PayloadFactory Payloads() const override {
    return [](Rng& rng, std::string& out) { FillBytes(rng, kPayloadBytes, out); };
  }

  uint64_t CheckWire(const WireConnection& conn, Failures& failures) override {
    Rng rng(seed_ ^ 0xec40);
    std::vector<std::string> requests(16);
    for (std::string& request : requests) {
      FillBytes(rng, kPayloadBytes, request);
    }
    std::vector<std::string> answers =
        conn.Exchange(requests, "echo_answered_in_order", failures);
    for (size_t i = 0; i < answers.size(); ++i) {
      if (answers[i] != requests[i]) {
        failures.push_back("echo_bytes_match");
        break;
      }
    }
    return answers.size();
  }

  void CheckLedger(uint64_t, Failures&) const override {}
  void AppMetrics(uint64_t, const std::vector<uint64_t>&, Metrics&) const override {}

 private:
  zygos::ViewHandler handler_;
  uint64_t seed_;
};

class KvEtc final : public Service {
 public:
  explicit KvEtc(uint64_t seed)
      : workload_(zygos::KvWorkloadSpec::Etc(), seed), seed_(seed) {
    workload_.Populate(service_);
  }

  zygos::ViewHandler Handler() override {
    // Every key the generator draws is populated and nothing deletes, so a status
    // other than OK is a wrong answer (a GET miss or an undecodable request).
    return [this](uint64_t, std::string_view request, zygos::ResponseBuilder& out) {
      if (service_.HandleView(request, out) != zygos::KvStatus::kOk) {
        not_ok_.fetch_add(1, std::memory_order_relaxed);
      }
    };
  }
  PayloadFactory Payloads() const override {
    return [workload = &workload_](Rng& rng, std::string& out) {
      out = workload->SampleRequest(rng);
    };
  }
  // Request class: the op byte (GET 0, SET 1).
  KindFn Kind() const override {
    return [](std::string_view request) -> uint8_t {
      return request.empty() ? 0 : static_cast<uint8_t>(request[0]);
    };
  }

  uint64_t CheckWire(const WireConnection& conn, Failures& failures) override {
    // SET fresh keys to known values and read them back, then GET populated keys.
    Rng rng(seed_ ^ 0x4b56 ^ checks_++);
    std::vector<std::string> requests;
    std::vector<std::string> values;
    for (int i = 0; i < 8; ++i) {
      std::string value;
      FillBytes(rng, 1 + rng.NextBounded(1024), value);
      std::string key = "perfbench-check-" + std::to_string(i);
      requests.push_back(zygos::EncodeKvRequest({zygos::KvOp::kSet, key, value}));
      values.push_back(std::move(value));
    }
    for (int i = 0; i < 8; ++i) {
      std::string key = "perfbench-check-" + std::to_string(i);
      requests.push_back(zygos::EncodeKvRequest({zygos::KvOp::kGet, key, {}}));
    }
    for (int i = 0; i < 8; ++i) {
      std::string key = workload_.KeyAt(rng.NextBounded(workload_.spec().num_keys));
      requests.push_back(zygos::EncodeKvRequest({zygos::KvOp::kGet, key, {}}));
    }
    std::vector<std::string> answers =
        conn.Exchange(requests, "kv_answered_in_order", failures);
    bool decoded = true;
    bool read_back = true;
    bool populated_hit = true;
    for (size_t i = 0; i < answers.size(); ++i) {
      std::optional<zygos::KvResponse> response = zygos::DecodeKvResponse(answers[i]);
      if (!response) {
        decoded = false;
        continue;
      }
      bool ok = response->status == zygos::KvStatus::kOk;
      if (i < 8) {
        read_back &= ok;
      } else if (i < 16) {
        read_back &= ok && response->value == values[i - 8];
      } else {
        populated_hit &= ok;
      }
    }
    if (!decoded) {
      failures.push_back("kv_response_decodes");
    }
    if (!read_back) {
      failures.push_back("kv_set_then_get_reads_back");
    }
    if (!populated_hit) {
      failures.push_back("kv_get_populated_key_hits");
    }
    return answers.size();
  }

  void CheckLedger(uint64_t, Failures& failures) const override {
    if (not_ok_.load(std::memory_order_relaxed) != 0) {
      failures.push_back("kv_every_request_ok");
    }
  }

  void AppMetrics(uint64_t, const std::vector<uint64_t>& kind_counts,
                  Metrics& out) const override {
    double gets = kind_counts.empty() ? 0.0 : static_cast<double>(kind_counts[0]);
    double misses = static_cast<double>(not_ok_.load(std::memory_order_relaxed));
    out.push_back({"kv.hit_frac", gets > 0 ? (gets - misses) / gets : 0.0, "fraction"});
  }

 private:
  zygos::KvService service_;
  zygos::KvWorkload workload_;
  uint64_t seed_;
  uint64_t checks_ = 0;
  std::atomic<uint64_t> not_ok_{0};
};

class Tpcc final : public Service {
 public:
  explicit Tpcc(uint64_t seed) : scale_(ScaleFor(seed)), seed_(seed) {
    zygos::TpccTables tables = zygos::LoadTpcc(db_, scale_);
    service_ = std::make_unique<zygos::TpccService>(db_, tables, scale_);
  }

  zygos::ViewHandler Handler() override { return service_->Handler(); }
  PayloadFactory Payloads() const override {
    return zygos::MakeTpccPayloadFactory(scale_);
  }
  // Request class: the transaction type (the request's op byte).
  KindFn Kind() const override {
    return [](std::string_view request) -> uint8_t {
      return request.empty() ? 0 : static_cast<uint8_t>(request[0]);
    };
  }

  uint64_t CheckWire(const WireConnection& conn, Failures& failures) override {
    Rng rng(seed_ ^ 0x7cc ^ checks_++);
    PayloadFactory payloads = Payloads();
    std::vector<std::string> requests(16);
    for (std::string& request : requests) {
      payloads(rng, request);
    }
    std::vector<std::string> answers =
        conn.Exchange(requests, "tpcc_answered_in_order", failures);
    for (size_t i = 0; i < answers.size(); ++i) {
      std::optional<zygos::TpccResponse> response =
          zygos::DecodeTpccResponse(answers[i]);
      if (!response || response->status == zygos::TpccWireStatus::kMalformed ||
          static_cast<uint8_t>(response->type) !=
              static_cast<uint8_t>(requests[i][0])) {
        failures.push_back("tpcc_response_decodes_and_matches");
        break;
      }
    }
    return answers.size();
  }

  void CheckLedger(uint64_t answered, Failures& failures) const override {
    if (service_->commits() + service_->user_aborts() + service_->malformed() !=
        answered) {
      failures.push_back("tpcc_ledger_commits_aborts_malformed_eq_answered");
    }
    if (service_->malformed() != 0) {
      failures.push_back("tpcc_malformed_eq_0");
    }
  }

  void AppMetrics(uint64_t answered, const std::vector<uint64_t>&,
                  Metrics& out) const override {
    double n = answered > 0 ? static_cast<double>(answered) : 1.0;
    out.push_back({"db.occ_retries_per_txn",
                   static_cast<double>(service_->occ_retries()) / n, "count"});
    out.push_back({"db.user_abort_frac",
                   static_cast<double>(service_->user_aborts()) / n, "fraction"});
  }

 private:
  static zygos::LoaderOptions ScaleFor(uint64_t seed) {
    zygos::LoaderOptions scale;  // full spec scale, one warehouse
    scale.seed = seed;
    return scale;
  }

  zygos::LoaderOptions scale_;
  uint64_t seed_;
  uint64_t checks_ = 0;
  zygos::Database db_;
  std::unique_ptr<zygos::TpccService> service_;
};

}  // namespace

std::unique_ptr<Service> MakeSpinEcho(uint64_t seed) {
  return std::make_unique<SpinEcho>(seed);
}
std::unique_ptr<Service> MakeKvEtc(uint64_t seed) { return std::make_unique<KvEtc>(seed); }
std::unique_ptr<Service> MakeTpcc(uint64_t seed) { return std::make_unique<Tpcc>(seed); }

WireConnection::WireConnection(uint16_t port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  timeval timeout{5, 0};  // a server that stops answering fails the check, not the run
  int one = 1;
  if (fd_ >= 0 &&
      (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout) != 0 ||
       ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one) != 0 ||
       ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)) {
    ::close(fd_);
    fd_ = -1;
  }
}

WireConnection::~WireConnection() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

std::vector<std::string> WireConnection::Exchange(const std::vector<std::string>& requests,
                                                  const char* check,
                                                  Failures& failures) const {
  std::vector<std::string> answers;
  if (fd_ < 0) {
    failures.push_back(check);
    return answers;
  }
  std::string wire;
  for (size_t i = 0; i < requests.size(); ++i) {
    zygos::EncodeMessage(i, requests[i], wire);
  }
  for (size_t sent = 0; sent < wire.size();) {
    ssize_t n = ::send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      failures.push_back(check);
      return answers;
    }
    sent += static_cast<size_t>(n);
  }
  zygos::FrameParser parser;
  char buffer[4096];
  while (answers.size() < requests.size()) {
    ssize_t n = ::recv(fd_, buffer, sizeof buffer, 0);
    if (n <= 0 || !parser.Feed(buffer, static_cast<size_t>(n))) {
      failures.push_back(check);
      return answers;
    }
    for (zygos::Message& message : parser.TakeMessages()) {
      if (message.request_id != answers.size() || message.shed) {
        failures.push_back(check);
        return answers;
      }
      answers.push_back(std::move(message.payload));
    }
  }
  return answers;
}

}  // namespace perfbench
