// fleet-ip: the survey batch path. Back-to-back daemon::run_fleet_job
// calls over the Sec. 5.1 synthetic world, IPv4 MDA-Lite, unmerged, each
// job's JSONL streamed to its own file through a ResultSink exactly as
// `mmlpt_fleet --output` does. Every job draws a fresh world from the run
// seed, so one run averages over many worlds instead of riding on the
// widest diamonds of a single one.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "orchestrator/result_sink.h"
#include "workloads.h"

namespace e2ebench {
namespace {

constexpr std::size_t kRoutesPerJob = 128;
/// Distinct diamond templates per job world: the IP survey's default. A
/// job meets only the few templates its Zipf draws favour, so the mean
/// cost of a run's jobs varies less the more templates each world holds.
constexpr std::uint64_t kDistinct = 300;

daemon::FleetJobSpec job_spec(std::uint64_t seed, std::size_t round) {
  daemon::FleetJobSpec spec;
  spec.routes = kRoutesPerJob;
  spec.algorithm = core::Algorithm::kMdaLite;
  spec.family = net::Family::kIpv4;
  spec.seed = derive_seed(seed, round);
  spec.distinct = kDistinct;
  spec.window = kWindow;
  return spec;
}

std::string job_path(const Options& options, const std::string& tag,
                     std::size_t round) {
  return options.out_dir + "/fleet-ip-" + tag + "-" + std::to_string(round) +
         ".jsonl";
}

/// One run_fleet_job with its lines streamed to `path`.
daemon::FleetJobCounters run_job_to_file(orchestrator::FleetScheduler& fleet,
                                         const daemon::FleetJobSpec& spec,
                                         const std::string& path) {
  std::ofstream file(path, std::ios::trunc);
  if (!file) throw std::runtime_error("cannot open " + path);
  orchestrator::ResultSink sink(file);
  daemon::FleetJobHooks hooks;
  hooks.on_line = [&](std::size_t i, std::string line) {
    sink.emit(i, std::move(line));
  };
  const auto counters = daemon::run_fleet_job(fleet, nullptr, spec,
                                              fakeroute::SimConfig{}, hooks);
  sink.flush();
  return counters;
}

/// Check one job's file against its regenerated routes, then delete it.
std::size_t check_job_file(Report& report, const std::string& path,
                           const daemon::FleetJobSpec& spec,
                           std::uint64_t packets, FailureBound& bound) {
  const auto lines = split_lines(read_file(path));
  const auto routes = generate_routes(job_generator(spec), spec.distinct,
                                      spec.seed, spec.destination_count());
  const auto failed =
      check_into(report, path, lines, routes, Payload::kTrace, packets, bound);
  std::remove(path.c_str());
  return failed;
}

Report run_untraced(const Options& options) {
  Report report;
  EndToEnd e2e;
  e2e.setup_s = measure_setup(options, kSetupLaunches);
  orchestrator::FleetScheduler fleet(fleet_config(kWorkers));

  struct Job {
    daemon::FleetJobSpec spec;
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
    Job job{job_spec(options.seed, round), job_path(options, "run", round)};
    const auto t = Clock::now();
    const double cpu = process_cpu_seconds();
    try {
      job.packets = run_job_to_file(fleet, job.spec, job.path).packets;
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
    const auto count = job.spec.destination_count();
    report.attempted += count;
    auto& slice = slice_at(e2e, job.start_s, options.seconds);
    slice.wall_s += job.wall_s;
    slice.cpu_s += job.cpu_s;
    if (!job.ok) {
      report.failed += count;
      continue;
    }
    const auto failed =
        check_job_file(report, job.path, job.spec, job.packets, bound);
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
  orchestrator::FleetScheduler fleet(fleet_config(kWorkers));
  Capture capture(kCaptureLimit);
  std::vector<TraceSpans> spans;
  FailureBound bound(kAlpha, kMaxBranching);
  double traced_s = 0.0;
  double plain_s = 0.0;
  double task_s = 0.0;
  const auto start = Clock::now();
  for (std::size_t round = 0; seconds_between(start, Clock::now()) < options.seconds;
       ++round) {
    const auto spec = job_spec(options.seed, round);
    const auto count = spec.destination_count();
    const auto traced_path = job_path(options, "traced", round);
    const auto plain_path = job_path(options, "plain", round);
    report.attempted += count;
    try {
      TracedJob traced;
      {
        std::ofstream file(traced_path, std::ios::trunc);
        orchestrator::ResultSink sink(file);
        traced = run_traced_fleet_job(
            fleet, spec, round == 0, capture, spans,
            [&](std::size_t i, std::string line) {
              sink.emit(i, std::move(line));
            },
            /*on_line_is_sink=*/true);
        sink.flush();
      }
      const auto t = Clock::now();
      const auto counters = run_job_to_file(fleet, spec, plain_path);
      plain_s += seconds_between(t, Clock::now());
      traced_s += traced.wall_s;
      task_s += traced.task_s;
      const bool same = fnv1a(read_file(traced_path)) ==
                            fnv1a(read_file(plain_path)) &&
                        counters.packets == traced.packets;
      std::remove(plain_path.c_str());
      if (!same) {
        report.error(traced_path + ": traced JSONL differs from run_fleet_job's");
        report.failed += count;
        std::remove(traced_path.c_str());
        continue;
      }
      report.failed +=
          check_job_file(report, traced_path, spec, traced.packets, bound);
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
  write_spans(options.out_dir + "/fleet-ip-spans.jsonl", spans);
  std::cerr << "fleet-ip: traced stack " << traced_s << " s, run_fleet_job "
            << plain_s << " s over the same jobs (tracing overhead x"
            << traced_s / plain_s << ")\n";
  return report;
}

}  // namespace

Report run_fleet_ip(const Options& options) {
  return options.trace ? run_traced(options) : run_untraced(options);
}

void setup_fleet_ip(const Options& options) {
  orchestrator::FleetScheduler fleet(fleet_config(kWorkers));
  const auto path = job_path(options, "setup", 0);
  {
    std::ofstream file(path, std::ios::trunc);
    orchestrator::ResultSink sink(file);
    signal_setup_ready();
  }
  std::remove(path.c_str());
}

}  // namespace e2ebench
