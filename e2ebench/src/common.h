// Shared plumbing of the benchmark binary: options, clocks, process
// resource readings, the result report and the set-up measurement.
#ifndef E2EBENCH_COMMON_H
#define E2EBENCH_COMMON_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace mmlpt {
namespace alias {}
namespace core {}
namespace daemon {}
namespace fakeroute {}
namespace net {}
namespace orchestrator {}
namespace probe {}
namespace survey {}
namespace topo {}
}  // namespace mmlpt

namespace e2ebench {

// The repository's modules, by their own names.
namespace alias = mmlpt::alias;
namespace core = mmlpt::core;
namespace daemon = mmlpt::daemon;
namespace fakeroute = mmlpt::fakeroute;
namespace net = mmlpt::net;
namespace orchestrator = mmlpt::orchestrator;
namespace probe = mmlpt::probe;
namespace survey = mmlpt::survey;
namespace topo = mmlpt::topo;

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Child mode of the set-up measurement: build the workload's stack,
  /// report readiness on stdout, tear down, exit.
  bool setup_probe = false;
  /// Where runs write their JSONL files and sockets (relative to the
  /// checkout root, which is the working directory).
  std::string out_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run prints as its last stdout line.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  ///< printed to stderr, first few only

  void error(std::string text);
  void add(std::string name, double value, std::string unit);
};

[[nodiscard]] double seconds_between(Clock::time_point a, Clock::time_point b);
[[nodiscard]] std::uint64_t ns_between(Clock::time_point a,
                                       Clock::time_point b);

/// User plus system CPU seconds of this process, all threads.
[[nodiscard]] double process_cpu_seconds();
/// Samples this process's resident set (VmRSS) every 20 ms on a thread
/// of its own, from construction until stop().
class RssSampler {
 public:
  RssSampler();
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// Stop sampling; returns (seconds since construction, MB) pairs.
  std::vector<std::pair<double, double>> stop();

 private:
  const Clock::time_point start_ = Clock::now();
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
  std::vector<std::pair<double, double>> samples_;
  std::thread thread_;  ///< last: starts once the members above exist
};

[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank percentile, q in (0, 1].
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// Deterministic per-round / per-job seed derived from the run's seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a,
                                        std::uint64_t b = 0) noexcept;

[[nodiscard]] std::string read_file(const std::string& path);

/// The set-up time of this workload: launch this binary in --setup-probe
/// mode `launches` times, time each from spawn until the child reports
/// its stack ready, and return the median in seconds.
[[nodiscard]] double measure_setup(const Options& options, int launches);
/// Child side of measure_setup: the stack is built, tell the parent.
void signal_setup_ready();

void print_report(const Report& report, const std::string& workload);

}  // namespace e2ebench

#endif  // E2EBENCH_COMMON_H
