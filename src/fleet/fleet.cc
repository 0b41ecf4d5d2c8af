#include "src/fleet/fleet.h"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "src/fleet/pattern.h"
#include "src/obs/export.h"
#include "src/obs/trace.h"
#include "src/rt/panic.h"

namespace spin {
namespace fleet {
Fleet::Fleet(Dispatcher* dispatcher, const FleetOptions& options)
    : dispatcher_(dispatcher), options_(options) {
  net::RegisterBuiltinTcpStacks();
  if (!options_.allowed_stacks.empty()) {
    authorizer_ =
        std::make_unique<net::StackAuthorizer>(options_.allowed_stacks);
  }
  latency_ =
      obs::Registry::Global().Register("Fleet.Request." + options_.stack);
  for (size_t i = 0; i < options_.pairs; ++i) {
    BuildPair(i);
  }
  obs::RegisterSource(this, &Fleet::ExportMetricsSource);
}

Fleet::~Fleet() {
  obs::UnregisterSource(this);
  obs::Registry::Global().Unregister(latency_.get());
}

void Fleet::BuildPair(size_t index) {
  auto pair = std::make_unique<Pair>();
  uint32_t client_ip = 0x0b000000u + static_cast<uint32_t>(index) * 2;
  uint32_t server_ip = client_ip + 1;
  pair->client_host = std::make_unique<net::Host>(
      "fleet-c" + std::to_string(index), client_ip, dispatcher_);
  pair->server_host = std::make_unique<net::Host>(
      "fleet-s" + std::to_string(index), server_ip, dispatcher_);
  pair->wire = std::make_unique<net::Wire>(
      &sim_, sim::LinkModel{options_.bandwidth_bps, options_.propagation_ns});
  pair->wire->Attach(*pair->client_host, *pair->server_host);
  if (options_.loss > 0) {
    pair->wire->SetRandomLoss(options_.loss, options_.seed + index);
  }
  if (options_.compress) {
    // One extension covers the bulk direction: responses server->client.
    pair->compression = std::make_unique<net::CompressionExtension>(
        *pair->server_host, *pair->client_host);
  }
  if (authorizer_ != nullptr) {
    authorizer_->Attach(*pair->client_host);
    authorizer_->Attach(*pair->server_host);
  }

  size_t total_conns = options_.pairs * options_.conns_per_pair;
  for (size_t c = 0; c < options_.conns_per_pair; ++c) {
    auto conn = std::make_unique<Conn>();
    Conn* raw = conn.get();
    uint16_t server_port = static_cast<uint16_t>(8000 + c);
    uint16_t client_port = static_cast<uint16_t>(20000 + c);
    conn->server =
        std::make_unique<net::TcpEndpoint>(*pair->server_host, server_port);
    conn->client =
        std::make_unique<net::TcpEndpoint>(*pair->client_host, client_port);
    conn->server->SetMaxRetries(options_.max_retries);
    conn->client->SetMaxRetries(options_.max_retries);
    bool server_bound =
        conn->server->UseStack(&sim_, options_.stack, options_.rto_ns);
    bool client_bound =
        conn->client->UseStack(&sim_, options_.stack, options_.rto_ns);
    SPIN_ASSERT_MSG(server_bound && client_bound,
                    "initial stack %s not bindable (denied or unknown)",
                    options_.stack.c_str());
    conn->server->Listen(
        [this, raw](const std::string& chunk) { OnServerData(raw, chunk); });

    size_t conn_index = index * options_.conns_per_pair + c;
    // Stagger opens and request ticks across the interval so the fleet
    // does not raise in lockstep.
    uint64_t stagger =
        options_.request_interval_ns * conn_index / std::max<size_t>(
            total_conns, 1);
    uint32_t dst_ip = server_ip;
    sim_.At(stagger,
            [this, raw, dst_ip, server_port] {
              raw->client->Connect(dst_ip, server_port,
                                   [this, raw](const std::string& chunk) {
                                     OnClientData(raw, chunk);
                                   });
            });
    sim_.At(stagger + options_.request_interval_ns,
            [this, raw] { Tick(raw); });
    pair->conns.push_back(std::move(conn));
  }
  pairs_.push_back(std::move(pair));
}

void Fleet::Tick(Conn* conn) {
  if (conn->client->dead() || conn->server->dead()) {
    return;  // failed connections stop generating load
  }
  if (conn->client->established()) {
    conn->sent_at_ns.push_back(sim_.now_ns());
    uint64_t offset = conn->requests * options_.request_bytes;
    ++conn->requests;
    ++requests_sent_;
    conn->client->Send(
        PatternChunk(Stream::kRequest, offset, options_.request_bytes));
  }
  uint64_t next = sim_.now_ns() + options_.request_interval_ns;
  if (next <= options_.duration_ns) {
    sim_.At(next, [this, conn] { Tick(conn); });
  }
}

void Fleet::OnServerData(Conn* conn, const std::string& chunk) {
  if (!VerifyChunk(Stream::kRequest, conn->server_rx, chunk)) {
    conn->intact = false;
  }
  conn->server_rx += chunk.size();
  conn->request_backlog += chunk.size();
  while (conn->request_backlog >= options_.request_bytes &&
         conn->server->established()) {
    conn->request_backlog -= options_.request_bytes;
    conn->server->Send(PatternChunk(Stream::kResponse, conn->server_tx,
                                    options_.response_bytes));
    conn->server_tx += options_.response_bytes;
  }
}

void Fleet::OnClientData(Conn* conn, const std::string& chunk) {
  if (!VerifyChunk(Stream::kResponse, conn->client_rx, chunk)) {
    conn->intact = false;
  }
  conn->client_rx += chunk.size();
  response_bytes_delivered_ += chunk.size();
  while (conn->client_rx >= (conn->responses + 1) * options_.response_bytes) {
    ++conn->responses;
    ++responses_delivered_;
    if (!conn->sent_at_ns.empty()) {
      uint64_t latency = sim_.now_ns() - conn->sent_at_ns.front();
      conn->sent_at_ns.pop_front();
      latency_->Record(obs::DispatchKind::kDirect, latency);
    }
  }
}

void Fleet::ScheduleSwap(uint64_t at_ns, const std::string& stack,
                         void* credentials) {
  sim_.At(at_ns, [this, stack, credentials] {
    for (auto& pair : pairs_) {
      for (auto& conn : pair->conns) {
        for (net::TcpEndpoint* endpoint :
             {conn->client.get(), conn->server.get()}) {
          if (endpoint->dead()) {
            continue;
          }
          if (endpoint->UseStack(&sim_, stack, options_.rto_ns,
                                 credentials)) {
            ++swaps_granted_;
          } else {
            ++swaps_denied_;
          }
        }
      }
    }
  });
}

FleetReport Fleet::Run() {
  if (options_.trace_sample_rate != 0) {
    // Fresh capture window: the phase totals below must cover exactly
    // this run, not whatever the process traced before.
    obs::FlightRecorder::Global().Reset();
    obs::ResetPhaseStats();
    dispatcher_->SetTracing(
        {obs::TraceMode::kSampled, options_.trace_sample_rate});
  }
  sim_.Run(options_.duration_ns);
  if (options_.trace_sample_rate != 0) {
    dispatcher_->SetTracing({obs::TraceMode::kOff, 1});
  }
  FleetReport report;
  report.hosts = pairs_.size() * 2;
  report.requests_sent = requests_sent_;
  report.responses_delivered = responses_delivered_;
  report.response_bytes_delivered = response_bytes_delivered_;
  report.swaps_granted = swaps_granted_;
  report.swaps_denied = swaps_denied_;
  for (const auto& pair : pairs_) {
    report.frames_offered += pair->wire->frames_offered();
    report.frames_lost += pair->wire->frames_lost();
    for (const auto& conn : pair->conns) {
      ++report.connections;
      if (conn->client->established() && conn->server->established()) {
        ++report.established;
      }
      if (conn->client->dead() || conn->server->dead()) {
        ++report.dead;
      }
      report.retransmissions += conn->client->retransmissions() +
                                conn->server->retransmissions();
      report.streams_intact = report.streams_intact && conn->intact;
    }
  }
  report.delivered_per_sec =
      static_cast<double>(responses_delivered_) * 1e9 /
      static_cast<double>(std::max<uint64_t>(options_.duration_ns, 1));
  obs::HistogramSnapshot merged = latency_->Merged();
  report.latency_p50_ns = merged.Percentile(0.5);
  report.latency_p99_ns = merged.Percentile(0.99);
  if (options_.trace_sample_rate != 0) {
    report.traced = true;
    for (const obs::PhaseStats& stats : obs::SnapshotPhaseStats()) {
      for (size_t p = 0; p < obs::kNumPhases; ++p) {
        report.phase_self_ns[p] += stats.phases[p].sum;
      }
    }
  }
  return report;
}

void Fleet::ExportMetricsSource(void* ctx, std::ostream& os) {
  auto* self = static_cast<Fleet*>(ctx);
  size_t connections = 0;
  size_t established = 0;
  size_t dead = 0;
  uint64_t retransmissions = 0;
  uint64_t frames_lost = 0;
  for (const auto& pair : self->pairs_) {
    frames_lost += pair->wire->frames_lost();
    for (const auto& conn : pair->conns) {
      ++connections;
      if (conn->client->established() && conn->server->established()) {
        ++established;
      }
      if (conn->client->dead() || conn->server->dead()) {
        ++dead;
      }
      retransmissions += conn->client->retransmissions() +
                         conn->server->retransmissions();
    }
  }
  auto line = [&os, self](const char* name, uint64_t value) {
    os << name << "{stack=\"";
    obs::WriteLabelValue(os, self->options_.stack);
    os << "\"} " << value << "\n";
  };
  line("spin_fleet_hosts", self->pairs_.size() * 2);
  line("spin_fleet_connections", connections);
  line("spin_fleet_established", established);
  line("spin_fleet_dead_connections", dead);
  line("spin_fleet_requests_total", self->requests_sent_);
  line("spin_fleet_responses_total", self->responses_delivered_);
  line("spin_fleet_response_bytes_total", self->response_bytes_delivered_);
  line("spin_fleet_retransmissions_total", retransmissions);
  line("spin_fleet_wire_frames_lost_total", frames_lost);
  line("spin_fleet_swaps_granted_total", self->swaps_granted_);
  line("spin_fleet_swaps_denied_total", self->swaps_denied_);
}

std::string ReportJson(const FleetOptions& options,
                       const FleetReport& report) {
  std::ostringstream os;
  os << "{\"bench\": \"fleet\""
     << ", \"stack\": \"" << options.stack << "\""
     << ", \"loss\": " << options.loss
     << ", \"hosts\": " << report.hosts
     << ", \"connections\": " << report.connections
     << ", \"established\": " << report.established
     << ", \"dead\": " << report.dead
     << ", \"duration_ms\": " << options.duration_ns / 1000000
     << ", \"requests\": " << report.requests_sent
     << ", \"responses\": " << report.responses_delivered
     << ", \"delivered_per_sec\": " << report.delivered_per_sec
     << ", \"latency_p50_us\": " << report.latency_p50_ns / 1000
     << ", \"latency_p99_us\": " << report.latency_p99_ns / 1000
     << ", \"retransmissions\": " << report.retransmissions
     << ", \"frames_lost\": " << report.frames_lost
     << ", \"frames_offered\": " << report.frames_offered
     << ", \"swaps_granted\": " << report.swaps_granted
     << ", \"swaps_denied\": " << report.swaps_denied
     << ", \"streams_intact\": " << (report.streams_intact ? "true" : "false");
  if (report.traced) {
    // Machine-dependent, so emitted only for traced runs — the smoke
    // rows the CI gate compares byte-for-byte never carry this object.
    // "traced" also keys the row apart from its untraced twin in
    // tools/bench_diff.py.
    os << ", \"traced\": true, \"phase_self_ns\": {";
    bool first = true;
    for (size_t p = 0; p < obs::kNumPhases; ++p) {
      if (report.phase_self_ns[p] == 0) {
        continue;
      }
      os << (first ? "" : ", ") << "\""
         << obs::PhaseName(static_cast<obs::Phase>(p))
         << "\": " << report.phase_self_ns[p];
      first = false;
    }
    os << "}";
  }
  os << "}";
  return os.str();
}

}  // namespace fleet
}  // namespace spin
