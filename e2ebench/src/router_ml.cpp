// router-ml: the Sec. 5.2 router-level survey. Back-to-back
// survey::run_router_survey calls (Multilevel MDA-Lite, IPv4, ten alias
// rounds), each over a fresh world drawn from the run seed, JSONL
// streamed to a file as `mmlpt_survey --mode router --output` does.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <set>
#include <stdexcept>

#include "core/multilevel.h"
#include "core/trace_json.h"
#include "orchestrator/result_sink.h"
#include "probe/engine.h"
#include "probe/simulated_network.h"
#include "survey/router_survey.h"
#include "workloads.h"

namespace e2ebench {
namespace {

constexpr std::size_t kRoutesPerJob = 8;
constexpr std::size_t kDistinct = 80;  // the mmlpt_survey router default
constexpr int kAliasRounds = 10;
/// Diamond shape cap of the router-ml world (see survey_config).
constexpr int kMaxWidth = 16;
constexpr std::size_t kMaxLength = 8;

survey::RouterSurveyConfig survey_config(std::uint64_t seed,
                                         std::size_t round) {
  survey::RouterSurveyConfig config;
  config.routes = kRoutesPerJob;
  config.distinct_diamonds = kDistinct;
  config.multilevel.rounds = kAliasRounds;
  config.multilevel.trace.window = kWindow;
  config.seed = derive_seed(seed, round);
  config.jobs = kWorkers;
  // Alias rounds probe every address of every multi-vertex hop 300 times,
  // so a route's cost grows with its diamonds' size: an uncapped 96-wide,
  // 20-hop template costs 30x a mean route, and a run meets too few of
  // them to average (spreads of 0.24-0.38 across seeds). The Sec. 5.1
  // marginals are kept below the cap.
  std::erase_if(config.generator.width_weights,
                [](const auto& w) { return w.first > kMaxWidth; });
  config.generator.length_weights.resize(kMaxLength + 1);
  return config;
}

std::string job_path(const Options& options, const std::string& tag,
                     std::size_t round) {
  return options.out_dir + "/router-ml-" + tag + "-" + std::to_string(round) +
         ".jsonl";
}

/// One run_router_survey with its lines streamed to `path`; returns the
/// survey's packet total.
std::uint64_t run_survey_to_file(const survey::RouterSurveyConfig& config,
                                 const std::string& path) {
  std::ofstream file(path, std::ios::trunc);
  if (!file) throw std::runtime_error("cannot open " + path);
  orchestrator::ResultSink sink(file);
  const auto result = survey::run_router_survey(config, &sink);
  sink.flush();
  if (result.routes_traced != config.routes) {
    throw std::runtime_error("survey traced " +
                             std::to_string(result.routes_traced) + " routes");
  }
  return result.total_packets;
}

std::size_t check_job_file(Report& report, const std::string& path,
                           const survey::RouterSurveyConfig& config,
                           std::uint64_t packets, FailureBound& bound) {
  const auto lines = split_lines(read_file(path));
  const auto routes = generate_routes(config.generator, config.distinct_diamonds,
                                      config.seed, config.routes);
  const auto failed = check_into(report, path, lines, routes,
                                 Payload::kMultilevel, packets, bound);
  std::remove(path.c_str());
  return failed;
}

/// The traced counterpart of survey::run_router_survey's per-route task
/// and ordered merge: simulator -> TimedQueue -> ProbeEngine ->
/// MultilevelTracer, the same JSONL into `sink`.
TracedJob run_traced_survey(const survey::RouterSurveyConfig& config,
                            bool first_round, Capture& capture,
                            std::vector<TraceSpans>& spans,
                            orchestrator::ResultSink& sink,
                            Report& report) {
  const std::size_t count = config.routes;
  const auto start = Clock::now();
  std::vector<TraceSpans> local(count);
  std::vector<topo::GroundTruth> routes;
  routes.reserve(count);
  topo::SurveyWorld world(config.generator, config.distinct_diamonds,
                          config.seed);
  for (std::size_t i = 0; i < count; ++i) {
    const auto t = Clock::now();
    routes.push_back(world.next_route());
    local[i].route_gen_ns = ns_between(t, Clock::now());
  }

  orchestrator::FleetScheduler fleet(
      {config.jobs, config.seed, config.pps, config.burst,
       config.merge_windows, config.pipeline_depth, nullptr});
  // run_router_survey's per-route simulator seeding.
  const std::uint64_t base_seed = config.seed * 0x2545F491ULL + 99;
  std::vector<Clock::time_point> returned(count);
  std::vector<char> merged_ok(count, 1);
  std::set<topo::DiamondKey> seen_diamonds;
  TracedJob job;
  fleet.run_streaming(
      count,
      [&](orchestrator::WorkerContext& context) {
        const std::size_t i = context.task_index;
        auto& s = local[i];
        const auto& route = routes[i];
        const auto task_start = Clock::now();
        fakeroute::Simulator simulator(route, config.sim, base_seed + i);
        s.sim_build_ns = ns_between(task_start, Clock::now());
        probe::SimulatedNetwork network(simulator);
        TimedQueue timed(network, &capture);
        probe::ProbeEngine::Config engine_config;
        engine_config.source = route.source;
        engine_config.destination = route.destination;
        probe::ProbeEngine engine(timed, engine_config);
        core::MultilevelTracer tracer(engine, config.multilevel);

        const auto allocs = thread_allocations();
        const auto t = Clock::now();
        auto ml = tracer.run();
        s.tracer_ns = ns_between(t, Clock::now());
        s.allocs = thread_allocations() - allocs;
        s.multilevel = true;
        s.first_round = first_round;
        s.backend_ns = timed.ns();
        s.windows = timed.windows();
        s.window_probes = timed.probes();
        s.packets = ml.total_packets;
        s.alias_probes = ml.total_packets - ml.trace.packets;
        s.stopping_ns =
            time_stopping_points(config.multilevel.trace, ml.trace.graph);

        const auto& graph = ml.trace.graph;
        const auto r = Clock::now();
        for (std::uint16_t h = 0; h < graph.hop_count(); ++h) {
          const auto vertices = graph.vertices_at(h);
          if (vertices.size() < 2) continue;
          std::vector<net::IpAddress> candidates;
          for (const auto v : vertices) candidates.push_back(graph.vertex(v).addr);
          (void)ml.resolver.resolve(candidates);
        }
        s.resolve_ns = ns_between(r, Clock::now());
        const auto m = Clock::now();
        const auto merged = core::MultilevelTracer::merge_by_aliases(
            graph, ml.final_round().sets_by_hop);
        s.alias_merge_ns = ns_between(m, Clock::now());
        merged_ok[i] = core::graph_to_json(merged) ==
                       core::graph_to_json(ml.router_graph);
        returned[i] = Clock::now();
        s.task_ns = ns_between(task_start, returned[i]);
        return ml;
      },
      [&](std::size_t i, core::MultilevelResult& ml) {
        auto& s = local[i];
        const auto t0 = Clock::now();
        s.reorder_wait_ns = ns_between(returned[i], t0);
        const std::string json = core::multilevel_to_json(ml);
        const auto t1 = Clock::now();
        s.json_ns = ns_between(t0, t1);
        s.json_bytes = json.size();
        auto line = orchestrator::destination_line(
            i, routes[i].destination.to_string(),
            core::stop_set_envelope_fields(ml), "multilevel", json);
        const auto t2 = Clock::now();
        sink.emit(i, std::move(line));
        const auto t3 = Clock::now();
        s.sink_ns = ns_between(t2, t3);
        // The public part of the survey's ordered merge: diamond
        // extraction, first-encounter dedup, resolution classification.
        for (const auto& d : topo::extract_diamonds(ml.trace.graph)) {
          if (!seen_diamonds.insert(topo::diamond_key(ml.trace.graph, d)).second) {
            continue;
          }
          (void)survey::classify_resolution(ml.trace.graph, ml.router_graph, d);
          (void)topo::compute_metrics(ml.trace.graph, d);
        }
        s.merge_ns = ns_between(t3, Clock::now());
        job.packets += ml.total_packets;
      });
  job.wall_s = seconds_between(start, Clock::now());
  for (std::size_t i = 0; i < count; ++i) {
    job.task_s += static_cast<double>(local[i].task_ns) / 1e9;
    if (!merged_ok[i]) {
      report.error("merge_by_aliases over the final round differs from the "
                   "tracer's router graph");
    }
  }
  spans.insert(spans.end(), local.begin(), local.end());
  return job;
}

Report run_untraced(const Options& options) {
  Report report;
  EndToEnd e2e;
  e2e.setup_s = measure_setup(options, kSetupLaunches);

  struct Job {
    survey::RouterSurveyConfig config;
    std::string path;
    std::uint64_t packets = 0;
    bool ok = false;
    double start_s = 0.0;
    double wall_s = 0.0;
    double cpu_s = 0.0;
  };
  std::vector<Job> jobs;
  RssSampler rss;
  const auto start = Clock::now();
  for (std::size_t round = 0; seconds_between(start, Clock::now()) < options.seconds;
       ++round) {
    Job job{survey_config(options.seed, round), job_path(options, "run", round)};
    const auto t = Clock::now();
    const double cpu = process_cpu_seconds();
    try {
      job.packets = run_survey_to_file(job.config, job.path);
      job.ok = true;
    } catch (const std::exception& e) {
      report.error(job.path + ": " + e.what());
    }
    job.wall_s = seconds_between(t, Clock::now());
    job.cpu_s = process_cpu_seconds() - cpu;
    job.start_s = seconds_between(start, t);
    e2e.job_ms.push_back(job.wall_s * 1e3);
    jobs.push_back(std::move(job));
  }
  e2e.add_rss(rss.stop(), options.seconds);

  FailureBound bound(kAlpha, kMaxBranching);
  for (const auto& job : jobs) {
    const auto count = job.config.routes;
    report.attempted += count;
    auto& slice = slice_at(e2e, job.start_s, options.seconds);
    slice.wall_s += job.wall_s;
    slice.cpu_s += job.cpu_s;
    if (!job.ok) {
      report.failed += count;
      continue;
    }
    const auto failed =
        check_job_file(report, job.path, job.config, job.packets, bound);
    report.failed += failed;
    if (failed == 0) {
      slice.traces += count;
      slice.packets += job.packets;
    }
  }
  check_bound(report, bound);
  add_end_to_end(report, e2e);
  return report;
}

Report run_traced(const Options& options) {
  Report report;
  Capture capture(kCaptureLimit);
  std::vector<TraceSpans> spans;
  FailureBound bound(kAlpha, kMaxBranching);
  double traced_s = 0.0;
  double plain_s = 0.0;
  double task_s = 0.0;
  const auto start = Clock::now();
  for (std::size_t round = 0; seconds_between(start, Clock::now()) < options.seconds;
       ++round) {
    const auto config = survey_config(options.seed, round);
    const auto count = config.routes;
    const auto traced_path = job_path(options, "traced", round);
    const auto plain_path = job_path(options, "plain", round);
    report.attempted += count;
    try {
      TracedJob traced;
      {
        std::ofstream file(traced_path, std::ios::trunc);
        orchestrator::ResultSink sink(file);
        traced = run_traced_survey(config, round == 0, capture, spans, sink,
                                   report);
        sink.flush();
      }
      const auto t = Clock::now();
      const auto packets = run_survey_to_file(config, plain_path);
      plain_s += seconds_between(t, Clock::now());
      traced_s += traced.wall_s;
      task_s += traced.task_s;
      const bool same = fnv1a(read_file(traced_path)) ==
                            fnv1a(read_file(plain_path)) &&
                        packets == traced.packets;
      std::remove(plain_path.c_str());
      if (!same) {
        report.error(traced_path +
                     ": traced JSONL differs from run_router_survey's");
        report.failed += count;
        std::remove(traced_path.c_str());
        continue;
      }
      report.failed +=
          check_job_file(report, traced_path, config, traced.packets, bound);
    } catch (const std::exception& e) {
      report.error(traced_path + ": " + e.what());
      report.failed += count;
    }
  }
  check_bound(report, bound);
  const NetReplay net = replay_net(capture, report);
  LayerExtras extras;
  extras.worker_busy_ratio = task_s / (kWorkers * traced_s);
  add_layer_metrics(report, spans, net, extras);
  write_spans(options.out_dir + "/router-ml-spans.jsonl", spans);
  std::cerr << "router-ml: traced stack " << traced_s
            << " s, run_router_survey " << plain_s
            << " s over the same jobs (tracing overhead x"
            << traced_s / plain_s << ")\n";
  return report;
}

}  // namespace

Report run_router_ml(const Options& options) {
  return options.trace ? run_traced(options) : run_untraced(options);
}

void setup_router_ml(const Options& options) {
  const auto path = job_path(options, "setup", 0);
  {
    std::ofstream file(path, std::ios::trunc);
    orchestrator::ResultSink sink(file);
    signal_setup_ready();
  }
  std::remove(path.c_str());
}

}  // namespace e2ebench
