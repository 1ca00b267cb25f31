// The three workloads and the pieces they share. Each workload runs the
// entry point a shipped tool uses:
//
//   fleet-ip       daemon::run_fleet_job        (mmlpt_fleet)
//   router-ml      survey::run_router_survey    (mmlpt_survey --mode router)
//   daemon-unmerged  daemon::Daemon + daemon::Client (mmlptd, mmlpt_client)
//
// and, with --trace 1, the same work through a stack rebuilt from public
// parts with spans around every layer (layers.h).
#ifndef E2EBENCH_WORKLOADS_H
#define E2EBENCH_WORKLOADS_H

#include <functional>
#include <string>
#include <vector>

#include "checks.h"
#include "common.h"
#include "core/trace_log.h"
#include "daemon/fleet_job.h"
#include "layers.h"
#include "orchestrator/fleet.h"

namespace e2ebench {

/// Load shape shared by every workload: four workers (the host's cores),
/// a probe window of 16, no probe-rate cap.
inline constexpr int kWorkers = 4;
inline constexpr int kWindow = 16;
/// Set-up is measured over this many launches; the median is reported.
inline constexpr int kSetupLaunches = 21;
/// Probe and reply datagrams kept for the net codec replay.
inline constexpr std::size_t kCaptureLimit = 20000;
/// The MDA's global failure bound and branching-vertex budget (the
/// TraceConfig defaults every workload runs with).
inline constexpr double kAlpha = 0.05;
inline constexpr int kMaxBranching = 30;

[[nodiscard]] Report run_fleet_ip(const Options& options);
[[nodiscard]] Report run_router_ml(const Options& options);
[[nodiscard]] Report run_daemon_unmerged(const Options& options);
void setup_fleet_ip(const Options& options);
void setup_router_ml(const Options& options);
void setup_daemon_unmerged(const Options& options);

/// A fleet scheduler as mmlpt_fleet and mmlptd build it: `jobs` workers,
/// windows not merged, no rate cap.
[[nodiscard]] orchestrator::FleetConfig fleet_config(int jobs);

/// The generator a fleet job's world is built with.
[[nodiscard]] topo::GeneratorConfig job_generator(
    const daemon::FleetJobSpec& spec);

/// check_batch over one batch, with its errors copied into `report`
/// prefixed by `context`. Returns the failed destination count.
std::size_t check_into(Report& report, const std::string& context,
                       std::span<const std::string> lines,
                       std::span<const topo::GroundTruth> routes,
                       Payload payload, std::uint64_t reported_packets,
                       FailureBound& bound);

/// A run's measured time is cut into this many consecutive slices; the
/// rate metrics report the median slice, so one slow episode (a burst of
/// the world's heaviest diamonds, a stalled core) moves a slice, not the
/// run.
inline constexpr int kSlices = 10;

/// What one slice of a run did.
struct Slice {
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< user + system CPU of the process
  std::uint64_t traces = 0;
  std::uint64_t packets = 0;
  double rss_peak_mb = 0.0;  ///< highest resident-set sample in the slice
};

/// The end-to-end figures of one untraced run.
struct EndToEnd {
  double setup_s = 0.0;
  std::vector<Slice> slices;
  std::vector<double> job_ms;  ///< latency of every job

  /// File the resident-set samples of a run of `seconds` by slice.
  void add_rss(const std::vector<std::pair<double, double>>& samples,
               double seconds);
};
void add_end_to_end(Report& report, const EndToEnd& e2e);

/// The slice of `e2e` that work starting `offset_s` into a run of
/// `seconds` belongs to (the kSlices slices are created on first use).
Slice& slice_at(EndToEnd& e2e, double offset_s, double seconds);

/// Report an exceeded failure bound as a correctness error.
void check_bound(Report& report, const FailureBound& bound);

/// Digest of a batch of JSONL lines exactly as a file would hold them.
[[nodiscard]] std::uint64_t digest_lines(std::span<const std::string> lines);

/// The traced counterpart of daemon::run_fleet_job: the same lines, in
/// the same order, handed to `on_line`, with one TraceSpans per
/// destination appended to `spans`. `on_line_is_sink` marks the hook as a
/// ResultSink::emit whose time is the sink span.
struct TracedJob {
  std::uint64_t packets = 0;
  double wall_s = 0.0;
  double task_s = 0.0;  ///< summed task time of all destinations
};
TracedJob run_traced_fleet_job(
    orchestrator::FleetScheduler& fleet, const daemon::FleetJobSpec& spec,
    bool first_round, Capture& capture, std::vector<TraceSpans>& spans,
    const std::function<void(std::size_t, std::string)>& on_line,
    bool on_line_is_sink);

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOADS_H
