// daemon-unmerged: the deployment shape. One in-process daemon::Daemon
// at mmlptd's defaults (one shared FleetScheduler, --jobs 1, windows not
// merged) serves four closed-loop tenants over its unix socket; each
// tenant is a daemon::Client on its own thread submitting back-to-back
// small jobs with distinct seeds, and half of them trace IPv6 worlds, so
// framing, admission and the flow-label packet path sit on the blocking
// path of every job.
//
// The same shape with --merge-windows is not run: its throughput swings
// by up to 2x from run to run (README.md, "Dropped workload").
#include <charconv>
#include <iostream>
#include <map>
#include <memory>
#include <thread>
#include <tuple>

#include <unistd.h>

#include "daemon/client.h"
#include "daemon/protocol.h"
#include "daemon/server.h"
#include "workloads.h"

namespace e2ebench {
namespace {

constexpr int kTenants = 4;
/// mmlptd's default --jobs: each job traces on its own thread, so four
/// tenants keep four tracers busy, one per core.
constexpr int kDaemonJobs = 1;
constexpr std::size_t kRoutesPerJob = 16;
constexpr std::uint64_t kDistinct = 100;  // the FleetJobSpec default
/// Encoded frames kept for the decode replay.
constexpr std::size_t kFrameCaptureLimit = 4096;

daemon::FleetJobSpec job_spec(std::uint64_t seed, int tenant,
                              std::uint64_t job) {
  daemon::FleetJobSpec spec;
  spec.routes = kRoutesPerJob;
  spec.algorithm = core::Algorithm::kMdaLite;
  spec.family = tenant >= kTenants / 2 ? net::Family::kIpv6 : net::Family::kIpv4;
  spec.seed = derive_seed(seed, static_cast<std::uint64_t>(tenant) + 1, job);
  spec.distinct = kDistinct;
  spec.window = kWindow;
  return spec;
}

std::string socket_path(const Options& options, const std::string& tag) {
  return options.out_dir + "/mmlptd-" + tag + "-" + std::to_string(getpid()) +
         ".sock";
}

daemon::DaemonConfig daemon_config(const std::string& socket) {
  daemon::DaemonConfig config;
  config.socket_path = socket;
  config.fleet = fleet_config(kDaemonJobs);
  return config;
}

/// Lines and their packets as they reach the tenants, read by the slice
/// sampler.
struct LineCounters {
  std::atomic<std::uint64_t> lines{0};
  std::atomic<std::uint64_t> packets{0};

  void add(const std::string& line) {
    static constexpr std::string_view kKey = "\"trace\":{\"packets\":";
    const auto at = line.find(kKey);
    std::uint64_t packets = 0;
    if (at != std::string::npos) {
      const char* first = line.data() + at + kKey.size();
      std::from_chars(first, line.data() + line.size(), packets);
    }
    this->packets.fetch_add(packets, std::memory_order_relaxed);
    lines.fetch_add(1, std::memory_order_relaxed);
  }
};

/// What one tenant saw of one job.
struct JobRecord {
  int tenant = 0;
  std::uint64_t index = 0;  ///< the tenant's job number
  daemon::FleetJobSpec spec;
  bool ok = false;
  bool in_order = true;  ///< every line carried the next index
  double latency_ms = 0.0;
  double first_line_ms = 0.0;
  std::uint64_t lines = 0;
  std::uint64_t packets = 0;  ///< the JobStatus total
  std::uint64_t digest = kFnvOffset;
  std::uint64_t bytes = 0;  ///< socket bytes of the job's response frames
  std::string error;

  void line(const std::string& text) {
    const std::string prefix = "{\"index\":" + std::to_string(lines) + ",";
    if (text.compare(0, prefix.size(), prefix) != 0) in_order = false;
    digest = fnv1a("\n", fnv1a(text, digest));
    ++lines;
  }
};

/// The response frames a client reads, re-encoded: their socket byte
/// count, and a bounded sample for the decode replay.
class FrameLog {
 public:
  std::uint64_t add(const daemon::Frame& frame) {
    auto bytes = daemon::encode_frame(frame);
    const std::uint64_t size = bytes.size();
    if (frames_.size() < kFrameCaptureLimit) frames_.push_back(std::move(bytes));
    return size;
  }
  [[nodiscard]] const std::vector<std::string>& frames() const {
    return frames_;
  }

 private:
  std::vector<std::string> frames_;
};

/// Closed loop: submit a job, wait for its final status, submit the next,
/// until `stop` is raised.
void tenant_loop(daemon::Client& client, int tenant, std::uint64_t seed,
                 const std::atomic<bool>& stop, std::vector<JobRecord>& out,
                 LineCounters* counters, FrameLog* frames) {
  for (std::uint64_t j = 0; !stop.load(std::memory_order_acquire); ++j) {
    JobRecord rec;
    rec.tenant = tenant;
    rec.index = j;
    rec.spec = job_spec(seed, tenant, j);
    const std::uint64_t job_id = j + 1;  // the Client numbers jobs from 1
    const auto sent = Clock::now();
    daemon::ClientRunOptions run;
    run.on_line = [&](const std::string& text) {
      if (rec.lines == 0) rec.first_line_ms = seconds_between(sent, Clock::now()) * 1e3;
      rec.line(text);
      if (counters) counters->add(text);
      if (frames) rec.bytes += frames->add(daemon::encode_result_line({job_id, text}));
    };
    run.on_progress = [&](const daemon::Progress& progress) {
      if (frames) rec.bytes += frames->add(daemon::encode_progress(progress));
    };
    try {
      const auto result = client.run_job(rec.spec, run);
      rec.latency_ms = seconds_between(sent, Clock::now()) * 1e3;
      rec.packets = result.packets;
      rec.ok = result.outcome == daemon::JobOutcome::kOk &&
               result.lines == rec.lines;
      if (!rec.ok) {
        rec.error = "job outcome " +
                    std::to_string(static_cast<int>(result.outcome)) + " " +
                    result.message;
      }
      if (frames) {
        rec.bytes += frames->add(daemon::encode_job_status(
            {job_id, result.outcome, result.message, result.lines,
             result.packets}));
      }
      out.push_back(std::move(rec));
    } catch (const std::exception& e) {
      rec.latency_ms = seconds_between(sent, Clock::now()) * 1e3;
      rec.error = e.what();
      out.push_back(std::move(rec));
      return;  // the connection is gone
    }
  }
}

/// Run `body(tenant, stop)` on one thread per tenant for `seconds`, then
/// raise stop and wait for every tenant to finish its current job. The
/// calling thread wakes kSlices times, evenly spread, and calls
/// `tick(elapsed_s)` each time. Returns the wall time from release to
/// the last tenant's return.
template <typename Body, typename Tick>
double run_tenants(double seconds, Body&& body, Tick&& tick) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  const auto start = Clock::now();
  for (int t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] { body(t, stop); });
  }
  for (int k = 1; k <= kSlices; ++k) {
    std::this_thread::sleep_until(
        start + std::chrono::duration<double>(seconds * k / kSlices));
    tick(seconds_between(start, Clock::now()));
  }
  stop.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();
  return seconds_between(start, Clock::now());
}

/// A daemon with every tenant connected and handshaken.
struct DaemonStack {
  explicit DaemonStack(const std::string& socket) : server(daemon_config(socket)) {
    server.start();
    for (int t = 0; t < kTenants; ++t) {
      clients.push_back(std::make_unique<daemon::Client>(
          socket, "tenant-" + std::to_string(t)));
    }
  }
  ~DaemonStack() {
    clients.clear();
    server.stop();
  }
  DaemonStack(const DaemonStack&) = delete;
  DaemonStack& operator=(const DaemonStack&) = delete;

  daemon::Daemon server;
  std::vector<std::unique_ptr<daemon::Client>> clients;
};

/// Serve the tenants for `seconds`; returns the wall time.
double serve(const Options& options, const std::string& tag, double seconds,
             std::vector<std::vector<JobRecord>>& records,
             std::vector<FrameLog>& frames) {
  DaemonStack stack(socket_path(options, tag));
  return run_tenants(
      seconds,
      [&](int t, const std::atomic<bool>& stop) {
        tenant_loop(*stack.clients[static_cast<std::size_t>(t)], t,
                    options.seed, stop, records[static_cast<std::size_t>(t)],
                    nullptr, &frames[static_cast<std::size_t>(t)]);
      },
      [](double) {});
}

/// Check every job: its lines must be byte-identical to an in-process
/// run_fleet_job of the same spec, and those lines must pass the ground
/// truth checks. One checker thread per tenant, each with a scheduler of
/// its own. Returns the failed job count.
std::uint64_t check_jobs(Report& report,
                         const std::vector<std::vector<JobRecord>>& records,
                         FailureBound& bound) {
  struct Checked {
    Report report;
    FailureBound bound{kAlpha, kMaxBranching};
    std::uint64_t failed = 0;
  };
  std::vector<Checked> checked(records.size());
  const auto check_tenant = [](const std::vector<JobRecord>& jobs,
                               Checked& out) {
    orchestrator::FleetScheduler reference(fleet_config(kDaemonJobs));
    for (const auto& rec : jobs) {
      const std::string context = "tenant " + std::to_string(rec.tenant) +
                                  " job " + std::to_string(rec.index);
      if (!rec.ok) {
        out.report.error(context + ": " + rec.error);
        ++out.failed;
        continue;
      }
      bool ok = false;
      try {
        std::vector<std::string> lines;
        daemon::FleetJobHooks hooks;
        hooks.on_line = [&](std::size_t, std::string line) {
          lines.push_back(std::move(line));
        };
        const auto counters = daemon::run_fleet_job(
            reference, nullptr, rec.spec, fakeroute::SimConfig{}, hooks);
        const auto routes = generate_routes(job_generator(rec.spec),
                                            rec.spec.distinct, rec.spec.seed,
                                            rec.spec.destination_count());
        ok = check_into(out.report, context, lines, routes, Payload::kTrace,
                        counters.packets, out.bound) == 0;
        if (!rec.in_order || rec.lines != lines.size() ||
            rec.digest != digest_lines(lines) ||
            rec.packets != counters.packets) {
          out.report.error(context + ": daemon JSONL differs from an "
                                     "in-process run_fleet_job of the same "
                                     "spec");
          ok = false;
        }
      } catch (const std::exception& e) {
        out.report.error(context + ": " + e.what());
      }
      if (!ok) ++out.failed;
    }
  };
  {
    std::vector<std::jthread> threads;
    for (std::size_t t = 0; t < records.size(); ++t) {
      threads.emplace_back(
          [&, t] { check_tenant(records[t], checked[t]); });
    }
  }
  std::uint64_t failed = 0;
  for (const auto& c : checked) {
    for (const auto& e : c.report.errors) report.error(e);
    bound.merge(c.bound);
    failed += c.failed;
  }
  return failed;
}

Report run_untraced(const Options& options) {
  Report report;
  EndToEnd e2e;
  e2e.setup_s = measure_setup(options, kSetupLaunches);
  std::vector<std::vector<JobRecord>> records(kTenants);
  {
    DaemonStack stack(socket_path(options, "run"));
    LineCounters counters;
    RssSampler rss;
    double last_s = 0.0;
    double last_cpu = process_cpu_seconds();
    std::uint64_t last_lines = 0;
    std::uint64_t last_packets = 0;
    (void)run_tenants(
        options.seconds,
        [&](int t, const std::atomic<bool>& stop) {
          tenant_loop(*stack.clients[static_cast<std::size_t>(t)], t,
                      options.seed, stop, records[static_cast<std::size_t>(t)],
                      &counters, nullptr);
        },
        [&](double elapsed_s) {
          const double cpu = process_cpu_seconds();
          const auto lines = counters.lines.load(std::memory_order_relaxed);
          const auto packets = counters.packets.load(std::memory_order_relaxed);
          auto& slice = slice_at(e2e, last_s, options.seconds);
          slice.wall_s = elapsed_s - last_s;
          slice.cpu_s = cpu - last_cpu;
          slice.traces = lines - last_lines;
          slice.packets = packets - last_packets;
          last_s = elapsed_s;
          last_cpu = cpu;
          last_lines = lines;
          last_packets = packets;
        });
    e2e.add_rss(rss.stop(), options.seconds);
  }

  FailureBound bound(kAlpha, kMaxBranching);
  const auto failed = check_jobs(report, records, bound);
  check_bound(report, bound);
  for (const auto& tenant : records) {
    for (const auto& rec : tenant) {
      ++report.attempted;
      e2e.job_ms.push_back(rec.latency_ms);
    }
  }
  report.failed = failed;
  add_end_to_end(report, e2e);
  return report;
}

double decode_us_per_frame(const std::vector<FrameLog>& logs, Report& report) {
  std::vector<const std::string*> frames;
  for (const auto& log : logs) {
    for (const auto& f : log.frames()) frames.push_back(&f);
  }
  if (frames.empty()) return 0.0;
  std::size_t decoded = 0;
  std::uint64_t lines = 0;
  const auto start = Clock::now();
  do {
    for (const auto* bytes : frames) {
      std::size_t offset = 0;
      const auto frame = daemon::decode_frame(*bytes, offset);
      if (!frame || offset != bytes->size()) {
        report.error("daemon: a captured frame does not decode whole");
        return 0.0;
      }
      switch (static_cast<daemon::FrameType>(frame->type)) {
        case daemon::FrameType::kResultLine:
          lines += daemon::decode_result_line(*frame).line.size() > 0;
          break;
        case daemon::FrameType::kProgress:
          (void)daemon::decode_progress(*frame);
          break;
        case daemon::FrameType::kJobStatus:
          (void)daemon::decode_job_status(*frame);
          break;
        default:
          break;
      }
    }
    decoded += frames.size();
  } while (seconds_between(start, Clock::now()) < 0.05);
  if (lines == 0) report.error("daemon: no result line among captured frames");
  return static_cast<double>(ns_between(start, Clock::now())) / 1e3 /
         static_cast<double>(decoded);
}

Report run_traced(const Options& options) {
  Report report;
  // Phase A: the real daemon and clients, with the client side timed.
  std::vector<std::vector<JobRecord>> served(kTenants);
  std::vector<FrameLog> frames(kTenants);
  (void)serve(options, "traced", options.seconds / 2, served, frames);

  // Phase B: the same tenants' jobs through one shared FleetScheduler, as
  // the daemon runs them, with timing decorators on every trace.
  orchestrator::FleetScheduler fleet(fleet_config(kDaemonJobs));
  Capture capture(kCaptureLimit);
  std::vector<std::vector<JobRecord>> traced(kTenants);
  std::vector<std::vector<TraceSpans>> spans(kTenants);
  std::vector<double> task_s(kTenants, 0.0);
  const double wall = run_tenants(
      options.seconds / 2, [&](int t, const std::atomic<bool>& stop) {
        const auto ti = static_cast<std::size_t>(t);
        for (std::uint64_t j = 0; !stop.load(std::memory_order_acquire); ++j) {
          JobRecord rec;
          rec.tenant = t;
          rec.index = j;
          rec.spec = job_spec(options.seed, t, j);
          try {
            const auto job = run_traced_fleet_job(
                fleet, rec.spec, j == 0, capture, spans[ti],
                [&](std::size_t, std::string line) { rec.line(line); },
                /*on_line_is_sink=*/false);
            rec.ok = true;
            rec.packets = job.packets;
            rec.latency_ms = job.wall_s * 1e3;
            task_s[ti] += job.task_s;
          } catch (const std::exception& e) {
            rec.error = e.what();
          }
          traced[ti].push_back(std::move(rec));
        }
      },
      [](double) {});

  // The traced stack must reproduce the daemon's bytes job for job.
  std::map<std::tuple<int, std::uint64_t>, std::uint64_t> served_digest;
  for (const auto& tenant : served) {
    for (const auto& rec : tenant) {
      if (rec.ok) served_digest[{rec.tenant, rec.index}] = rec.digest;
    }
  }
  for (const auto& tenant : traced) {
    for (const auto& rec : tenant) {
      const auto it = served_digest.find({rec.tenant, rec.index});
      if (rec.ok && it != served_digest.end() && it->second != rec.digest) {
        report.error("traced JSONL of tenant " + std::to_string(rec.tenant) +
                     " job " + std::to_string(rec.index) +
                     " differs from the daemon's");
      }
    }
  }

  FailureBound bound(kAlpha, kMaxBranching);
  report.failed = check_jobs(report, served, bound) + check_jobs(report, traced, bound);
  check_bound(report, bound);

  std::vector<double> first_line_ms;
  double bytes = 0.0;
  double jobs = 0.0;
  for (const auto& tenant : served) {
    for (const auto& rec : tenant) {
      ++report.attempted;
      first_line_ms.push_back(rec.first_line_ms);
      bytes += static_cast<double>(rec.bytes);
      jobs += 1.0;
    }
  }
  std::vector<TraceSpans> all;
  double busy = 0.0;
  for (int t = 0; t < kTenants; ++t) {
    const auto ti = static_cast<std::size_t>(t);
    report.attempted += traced[ti].size();
    all.insert(all.end(), spans[ti].begin(), spans[ti].end());
    busy += task_s[ti];
  }

  LayerExtras extras;
  // Each tenant's job runs kDaemonJobs workers, all jobs at once.
  extras.worker_busy_ratio = busy / (kDaemonJobs * kTenants * wall);
  extras.daemon_first_line_ms_p50 = median(first_line_ms);
  extras.daemon_bytes_per_job = jobs > 0 ? bytes / jobs : 0.0;
  extras.daemon_decode_us_per_frame = decode_us_per_frame(frames, report);
  const NetReplay net = replay_net(capture, report);
  add_layer_metrics(report, all, net, extras);
  write_spans(options.out_dir + "/daemon-unmerged-spans.jsonl", all);
  return report;
}

}  // namespace

Report run_daemon_unmerged(const Options& options) {
  return options.trace ? run_traced(options) : run_untraced(options);
}

void setup_daemon_unmerged(const Options& options) {
  DaemonStack stack(socket_path(options, "setup"));
  signal_setup_ready();
}

}  // namespace e2ebench
