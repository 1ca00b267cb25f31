#include <algorithm>
#include <iostream>

#include "core/trace_json.h"
#include "core/validation.h"
#include "orchestrator/result_sink.h"
#include "probe/simulated_network.h"
#include "survey/accounting.h"
#include "survey/ip_survey.h"
#include "workloads.h"

namespace e2ebench {

orchestrator::FleetConfig fleet_config(int jobs) {
  orchestrator::FleetConfig config;
  config.jobs = jobs;
  return config;
}

topo::GeneratorConfig job_generator(const daemon::FleetJobSpec& spec) {
  topo::GeneratorConfig generator;
  generator.family = spec.family;
  generator.shared_prefix_hops = spec.shared_prefix;
  return generator;
}

std::size_t check_into(Report& report, const std::string& context,
                       std::span<const std::string> lines,
                       std::span<const topo::GroundTruth> routes,
                       Payload payload, std::uint64_t reported_packets,
                       FailureBound& bound) {
  const auto result =
      check_batch(lines, routes, payload, reported_packets, bound);
  for (const auto& e : result.errors) report.error(context + ": " + e);
  if (result.excused_false_edges > 0) {
    std::cerr << context << ": " << result.excused_false_edges
              << " false edge(s) out of a hop with a missed vertex, counted "
                 "against the alpha bound\n";
  }
  return result.failed;
}

Slice& slice_at(EndToEnd& e2e, double offset_s, double seconds) {
  if (e2e.slices.empty()) e2e.slices.resize(kSlices);
  const auto k = static_cast<int>(offset_s / seconds * kSlices);
  return e2e.slices[static_cast<std::size_t>(std::clamp(k, 0, kSlices - 1))];
}

void EndToEnd::add_rss(const std::vector<std::pair<double, double>>& samples,
                       double seconds) {
  for (const auto& [at, mb] : samples) {
    auto& slice = slice_at(*this, at, seconds);
    slice.rss_peak_mb = std::max(slice.rss_peak_mb, mb);
  }
}

void add_end_to_end(Report& report, const EndToEnd& e2e) {
  std::vector<double> rate, probes, cpu, rss;
  for (const auto& s : e2e.slices) {
    if (s.traces == 0 || s.wall_s <= 0.0) continue;
    const auto traces = static_cast<double>(s.traces);
    rate.push_back(traces / s.wall_s);
    probes.push_back(static_cast<double>(s.packets) / traces);
    cpu.push_back(s.cpu_s * 1e3 / traces);
    rss.push_back(s.rss_peak_mb);
  }
  report.add("setup_s", e2e.setup_s, "s");
  report.add("traces_per_s", median(rate), "traces/s");
  report.add("probes_per_trace", median(probes), "probes");
  report.add("cpu_ms_per_trace", median(cpu), "ms");
  report.add("peak_rss_mb", median(rss), "MB");
  report.add("job_ms_p50", median(e2e.job_ms), "ms");
  report.add("job_ms_p90", percentile(e2e.job_ms, 0.9), "ms");
}

void check_bound(Report& report, const FailureBound& bound) {
  if (!bound.holds()) {
    report.error(std::to_string(bound.differing()) + " of " +
                 std::to_string(bound.routes()) +
                 " destinations differ from the ground truth; the alpha "
                 "bound allows " +
                 std::to_string(bound.limit()));
  }
}

std::uint64_t digest_lines(std::span<const std::string> lines) {
  std::uint64_t hash = kFnvOffset;
  for (const auto& line : lines) hash = fnv1a("\n", fnv1a(line, hash));
  return hash;
}

namespace {

/// The traced counterpart of survey::trace_route_task's undecorated
/// path: simulator -> TimedQueue -> core::run_trace_with_network.
core::TraceResult traced_trace(const topo::GroundTruth& route,
                               const core::TraceConfig& config,
                               std::uint64_t seed, Capture& capture,
                               TraceSpans& s) {
  const auto built = Clock::now();
  fakeroute::Simulator simulator(route, fakeroute::SimConfig{}, seed);
  s.sim_build_ns = ns_between(built, Clock::now());
  probe::SimulatedNetwork network(simulator);
  TimedQueue timed(network, &capture);
  const auto allocs = thread_allocations();
  const auto start = Clock::now();
  auto trace = core::run_trace_with_network(timed, route.source,
                                            route.destination,
                                            core::Algorithm::kMdaLite, config);
  s.tracer_ns = ns_between(start, Clock::now());
  s.allocs = thread_allocations() - allocs;
  s.backend_ns = timed.ns();
  s.windows = timed.windows();
  s.window_probes = timed.probes();
  s.packets = trace.packets;
  s.stopping_ns = time_stopping_points(config, trace.graph);
  return trace;
}

}  // namespace

TracedJob run_traced_fleet_job(
    orchestrator::FleetScheduler& fleet, const daemon::FleetJobSpec& spec,
    bool first_round, Capture& capture, std::vector<TraceSpans>& spans,
    const std::function<void(std::size_t, std::string)>& on_line,
    bool on_line_is_sink) {
  const std::size_t count = spec.destination_count();
  const auto start = Clock::now();
  std::vector<TraceSpans> local(count);
  std::vector<topo::GroundTruth> routes;
  routes.reserve(count);
  topo::SurveyWorld world(job_generator(spec), spec.distinct, spec.seed);
  for (std::size_t i = 0; i < count; ++i) {
    const auto t = Clock::now();
    routes.push_back(world.next_route());
    local[i].route_gen_ns = ns_between(t, Clock::now());
  }

  core::TraceConfig config;
  config.window = spec.window;
  survey::DiamondAccounting accounting(2);
  std::vector<Clock::time_point> returned(count);
  TracedJob job;
  fleet.run_streaming(
      count,
      [&](orchestrator::WorkerContext& context) {
        const std::size_t i = context.task_index;
        const auto t = Clock::now();
        auto trace =
            traced_trace(routes[i], config,
                         survey::ip_trace_seed(spec.seed, i), capture,
                         local[i]);
        local[i].first_round = first_round;
        returned[i] = Clock::now();
        local[i].task_ns = ns_between(t, returned[i]);
        return trace;
      },
      [&](std::size_t i, core::TraceResult& trace) {
        auto& s = local[i];
        const auto t0 = Clock::now();
        s.reorder_wait_ns = ns_between(returned[i], t0);
        const std::string json = core::trace_to_json(trace);
        const auto t1 = Clock::now();
        s.json_ns = ns_between(t0, t1);
        s.json_bytes = json.size();
        auto line = orchestrator::destination_line(
            i, routes[i].destination.to_string(),
            core::stop_set_envelope_fields(trace), "trace", json);
        const auto t2 = Clock::now();
        on_line(i, std::move(line));
        const auto t3 = Clock::now();
        if (on_line_is_sink) s.sink_ns = ns_between(t2, t3);
        accounting.record_all(trace.graph);
        s.merge_ns = ns_between(t3, Clock::now());
        job.packets += trace.packets;
      });
  job.wall_s = seconds_between(start, Clock::now());
  for (const auto& s : local) job.task_s += static_cast<double>(s.task_ns) / 1e9;
  spans.insert(spans.end(), local.begin(), local.end());
  return job;
}

}  // namespace e2ebench
