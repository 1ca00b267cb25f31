#include "layers.h"

#include <algorithm>
#include <fstream>

#include "core/stopping_points.h"
#include "net/packet.h"

namespace e2ebench {

void Capture::probes(std::span<const probe::Datagram> window) {
  if (full_.load(std::memory_order_acquire)) return;
  const std::lock_guard lock(mutex_);
  for (const auto& d : window) {
    if (probes_.size() >= limit_) break;
    probes_.push_back(d.bytes);
  }
  if (probes_.size() >= limit_ && replies_.size() >= limit_) {
    full_.store(true, std::memory_order_release);
  }
}

void Capture::replies(const std::vector<probe::Completion>& completions) {
  if (full_.load(std::memory_order_acquire)) return;
  const std::lock_guard lock(mutex_);
  for (const auto& c : completions) {
    if (replies_.size() >= limit_) break;
    if (c.reply) replies_.push_back(c.reply->datagram);
  }
  if (probes_.size() >= limit_ && replies_.size() >= limit_) {
    full_.store(true, std::memory_order_release);
  }
}

void TimedQueue::submit(std::span<const probe::Datagram> window,
                        probe::Ticket ticket,
                        const probe::SubmitOptions& options) {
  if (capture_ != nullptr) capture_->probes(window);
  const auto start = Clock::now();
  inner_->submit(window, ticket, options);
  ns_ += ns_between(start, Clock::now());
  ++windows_;
  probes_ += window.size();
}

std::vector<probe::Completion> TimedQueue::poll_completions() {
  const auto start = Clock::now();
  auto completions = inner_->poll_completions();
  ns_ += ns_between(start, Clock::now());
  if (capture_ != nullptr) capture_->replies(completions);
  return completions;
}

std::uint64_t time_stopping_points(const core::TraceConfig& config,
                                   const topo::MultipathGraph& graph) {
  int widest = 1;
  for (std::uint16_t h = 0; h < graph.hop_count(); ++h) {
    widest = std::max(widest, static_cast<int>(graph.vertices_at(h).size()));
  }
  const auto start = Clock::now();
  const auto points =
      core::StoppingPoints::for_global(config.alpha, config.max_branching);
  const int n = points.n(widest);
  const auto end = Clock::now();
  return n > 0 ? ns_between(start, end) : 0;
}

NetReplay replay_net(const Capture& capture, Report& report) {
  constexpr double kMinReplaySeconds = 0.05;
  NetReplay out;

  std::vector<net::ProbeSpec> specs;
  for (const auto& bytes : capture.probe_bytes()) {
    const auto parsed = net::parse_probe(bytes);
    if (!parsed.is_udp()) continue;  // echo probes of the alias rounds
    net::ProbeSpec spec;
    spec.src = parsed.src();
    spec.dst = parsed.dst();
    spec.src_port = parsed.udp.src_port;
    spec.dst_port = parsed.udp.dst_port;
    spec.ttl = parsed.ttl();
    spec.ip_id = parsed.ip_id();
    spec.flow_label =
        parsed.family == net::Family::kIpv6 ? parsed.ip6.flow_label : 0;
    spec.payload_bytes = static_cast<std::uint16_t>(parsed.udp.length - 8);
    if (net::build_udp_probe(spec) != bytes) {
      report.error("net: a rebuilt probe differs from the captured datagram");
      return out;
    }
    specs.push_back(spec);
  }
  if (!specs.empty()) {
    std::size_t built = 0;
    std::size_t bytes = 0;
    const auto start = Clock::now();
    do {
      for (const auto& spec : specs) bytes += net::build_udp_probe(spec).size();
      built += specs.size();
    } while (seconds_between(start, Clock::now()) < kMinReplaySeconds);
    out.build_ns_per_probe = static_cast<double>(ns_between(start, Clock::now())) /
                             static_cast<double>(built);
    if (bytes == 0) report.error("net: empty rebuilt probes");
  }

  const auto& replies = capture.reply_bytes();
  if (!replies.empty()) {
    std::size_t parsed = 0;
    std::size_t answered = 0;
    const auto start = Clock::now();
    do {
      for (const auto& r : replies) {
        if (!net::parse_reply(r).responder().is_unspecified()) ++answered;
      }
      parsed += replies.size();
    } while (seconds_between(start, Clock::now()) < kMinReplaySeconds);
    out.parse_ns_per_reply = static_cast<double>(ns_between(start, Clock::now())) /
                             static_cast<double>(parsed);
    if (answered != parsed) report.error("net: a captured reply has no responder");
  }
  return out;
}

namespace {

double per(double total, double count) { return count > 0 ? total / count : 0.0; }

}  // namespace

void add_layer_metrics(Report& report, const std::vector<TraceSpans>& spans,
                       const NetReplay& net, const LayerExtras& extras) {
  double traces = 0, ip_traces = 0, ml_traces = 0;
  double route_gen = 0, sim_build = 0, backend = 0, stopping = 0, json = 0,
         json_bytes = 0, sink = 0, merge = 0, resolve = 0, alias_merge = 0,
         tracer_self = 0, ml_self = 0, alias_probes = 0, windows = 0,
         window_probes = 0;
  double first_allocs = 0, first_packets = 0;
  std::vector<double> reorder_ms;
  for (const auto& s : spans) {
    traces += 1;
    route_gen += static_cast<double>(s.route_gen_ns);
    sim_build += static_cast<double>(s.sim_build_ns);
    backend += static_cast<double>(s.backend_ns);
    stopping += static_cast<double>(s.stopping_ns);
    json += static_cast<double>(s.json_ns);
    json_bytes += static_cast<double>(s.json_bytes);
    sink += static_cast<double>(s.sink_ns);
    merge += static_cast<double>(s.merge_ns);
    resolve += static_cast<double>(s.resolve_ns);
    alias_merge += static_cast<double>(s.alias_merge_ns);
    alias_probes += static_cast<double>(s.alias_probes);
    windows += static_cast<double>(s.windows);
    window_probes += static_cast<double>(s.window_probes);
    const double self = static_cast<double>(s.tracer_ns) -
                        static_cast<double>(s.backend_ns);
    if (s.multilevel) {
      ml_traces += 1;
      ml_self += self;
    } else {
      ip_traces += 1;
      tracer_self += self;
    }
    if (s.first_round) {
      first_allocs += static_cast<double>(s.allocs);
      first_packets += static_cast<double>(s.packets);
    }
    reorder_ms.push_back(static_cast<double>(s.reorder_wait_ns) / 1e6);
  }
  const auto sink_lines = static_cast<double>(
      std::count_if(spans.begin(), spans.end(),
                    [](const TraceSpans& s) { return s.sink_ns > 0; }));
  report.add("topology.route_gen_us", per(route_gen, traces) / 1e3, "us");
  report.add("fakeroute.sim_build_us", per(sim_build, traces) / 1e3, "us");
  report.add("fakeroute.backend_ns_per_probe", per(backend, window_probes),
             "ns");
  report.add("net.build_ns_per_probe", net.build_ns_per_probe, "ns");
  report.add("net.parse_ns_per_reply", net.parse_ns_per_reply, "ns");
  report.add("core.allocs_per_probe", per(first_allocs, first_packets),
             "count");
  report.add("core.stopping_points_us", per(stopping, traces) / 1e3, "us");
  report.add("core.tracer_self_us", per(tracer_self, ip_traces) / 1e3, "us");
  report.add("core.multilevel_self_us", per(ml_self, ml_traces) / 1e3, "us");
  report.add("core.json_us", per(json, traces) / 1e3, "us");
  report.add("core.json_bytes", per(json_bytes, traces), "bytes");
  report.add("alias.resolve_us", per(resolve, ml_traces) / 1e3, "us");
  report.add("alias.merge_us", per(alias_merge, ml_traces) / 1e3, "us");
  report.add("alias.probes_per_trace", per(alias_probes, ml_traces), "probes");
  report.add("probe.windows_per_trace", per(windows, traces), "windows");
  report.add("probe.probes_per_window", per(window_probes, windows), "probes");
  report.add("survey.merge_us", per(merge, traces) / 1e3, "us");
  report.add("orchestrator.sink_us_per_line", per(sink, sink_lines) / 1e3,
             "us");
  report.add("orchestrator.reorder_wait_ms_p50", median(reorder_ms), "ms");
  report.add("orchestrator.worker_busy_ratio", extras.worker_busy_ratio,
             "ratio");
  report.add("daemon.first_line_ms_p50", extras.daemon_first_line_ms_p50, "ms");
  report.add("daemon.bytes_per_job", extras.daemon_bytes_per_job, "bytes");
  report.add("daemon.decode_us_per_frame", extras.daemon_decode_us_per_frame,
             "us");
}

void write_spans(const std::string& path, const std::vector<TraceSpans>& spans) {
  std::ofstream out(path, std::ios::trunc);
  for (const auto& s : spans) {
    out << "{\"multilevel\":" << (s.multilevel ? "true" : "false")
        << ",\"route_gen_ns\":" << s.route_gen_ns
        << ",\"sim_build_ns\":" << s.sim_build_ns
        << ",\"task_ns\":" << s.task_ns << ",\"tracer_ns\":" << s.tracer_ns
        << ",\"backend_ns\":" << s.backend_ns
        << ",\"stopping_ns\":" << s.stopping_ns
        << ",\"resolve_ns\":" << s.resolve_ns
        << ",\"alias_merge_ns\":" << s.alias_merge_ns
        << ",\"reorder_wait_ns\":" << s.reorder_wait_ns
        << ",\"json_ns\":" << s.json_ns << ",\"sink_ns\":" << s.sink_ns
        << ",\"merge_ns\":" << s.merge_ns << ",\"packets\":" << s.packets
        << ",\"windows\":" << s.windows << ",\"allocs\":" << s.allocs << "}\n";
  }
}

}  // namespace e2ebench
