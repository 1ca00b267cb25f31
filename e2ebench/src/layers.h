// Per-layer instrumentation for the traced run. The benchmark rebuilds
// the shipped probing stacks from public parts and records spans around
// the calls into each module from its own files:
//
//   fakeroute::Simulator -> probe::SimulatedNetwork -> TimedQueue
//     -> core::run_trace_with_network | core::MultilevelTracer
//
// Each destination gets one TraceSpans record: the flattened span tree of
// that trace (route generation, simulator construction, tracer, backend,
// stopping points, JSON, sink, merge). Records stay in memory and are
// written out as JSONL when the run ends.
#ifndef E2EBENCH_LAYERS_H
#define E2EBENCH_LAYERS_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common.h"
#include "core/trace_log.h"
#include "probe/transport_queue.h"

namespace e2ebench {

/// Heap allocations the calling thread has made so far (counted by the
/// benchmark binary's replacement operator new, alloc_count.cpp).
[[nodiscard]] std::uint64_t thread_allocations() noexcept;

/// Bounded, thread-safe capture of probe and reply datagrams, replayed
/// through the net codec after the run.
class Capture {
 public:
  explicit Capture(std::size_t limit) : limit_(limit) {}
  void probes(std::span<const probe::Datagram> window);
  void replies(const std::vector<probe::Completion>& completions);
  [[nodiscard]] const std::vector<std::vector<std::uint8_t>>& probe_bytes()
      const noexcept {
    return probes_;
  }
  [[nodiscard]] const std::vector<std::vector<std::uint8_t>>& reply_bytes()
      const noexcept {
    return replies_;
  }

 private:
  std::size_t limit_;
  std::atomic<bool> full_{false};
  std::mutex mutex_;
  std::vector<std::vector<std::uint8_t>> probes_;
  std::vector<std::vector<std::uint8_t>> replies_;
};

/// Timing decorator over the simulated backend: time spent inside
/// submit()/poll_completions(), windows and probes seen.
class TimedQueue final : public probe::TransportQueue {
 public:
  TimedQueue(probe::TransportQueue& inner, Capture* capture)
      : inner_(&inner), capture_(capture) {}
  using probe::TransportQueue::submit;
  void submit(std::span<const probe::Datagram> window, probe::Ticket ticket,
              const probe::SubmitOptions& options) override;
  [[nodiscard]] std::vector<probe::Completion> poll_completions() override;
  void cancel(probe::Ticket ticket) override { inner_->cancel(ticket); }
  [[nodiscard]] std::size_t pending() const override {
    return inner_->pending();
  }

  [[nodiscard]] std::uint64_t ns() const noexcept { return ns_; }
  [[nodiscard]] std::uint64_t windows() const noexcept { return windows_; }
  [[nodiscard]] std::uint64_t probes() const noexcept { return probes_; }

 private:
  probe::TransportQueue* inner_;
  Capture* capture_;
  std::uint64_t ns_ = 0;
  std::uint64_t windows_ = 0;
  std::uint64_t probes_ = 0;
};

/// One destination's spans, flattened. Times in nanoseconds.
struct TraceSpans {
  bool multilevel = false;
  bool first_round = false;  ///< allocation counts are taken from round 0
  std::uint64_t route_gen_ns = 0;
  std::uint64_t sim_build_ns = 0;
  std::uint64_t tracer_ns = 0;   ///< run_trace_with_network / Multilevel run
  std::uint64_t backend_ns = 0;  ///< inside TimedQueue, within tracer_ns
  std::uint64_t stopping_ns = 0;
  std::uint64_t json_ns = 0;
  std::uint64_t json_bytes = 0;
  std::uint64_t sink_ns = 0;
  std::uint64_t merge_ns = 0;
  std::uint64_t reorder_wait_ns = 0;
  std::uint64_t task_ns = 0;
  std::uint64_t resolve_ns = 0;
  std::uint64_t alias_merge_ns = 0;
  std::uint64_t packets = 0;
  std::uint64_t alias_probes = 0;
  std::uint64_t windows = 0;
  std::uint64_t window_probes = 0;
  std::uint64_t allocs = 0;
};

/// Time what a tracer spends on stopping points: the global-bound
/// constructor plus the n(k) table up to the widest hop it saw.
[[nodiscard]] std::uint64_t time_stopping_points(
    const core::TraceConfig& config, const topo::MultipathGraph& graph);

/// Layer-wide figures that are not per destination.
struct LayerExtras {
  double worker_busy_ratio = 0.0;
  double daemon_first_line_ms_p50 = 0.0;
  double daemon_bytes_per_job = 0.0;
  double daemon_decode_us_per_frame = 0.0;
};

/// Replay the captured datagrams through net::build_udp_probe and
/// net::parse_reply. Adds an error to `report` when a rebuilt probe
/// differs from the captured bytes.
struct NetReplay {
  double build_ns_per_probe = 0.0;
  double parse_ns_per_reply = 0.0;
};
[[nodiscard]] NetReplay replay_net(const Capture& capture, Report& report);

/// Every per-layer metric, by name, from the run's spans. Layers the
/// workload never enters read 0.
void add_layer_metrics(Report& report, const std::vector<TraceSpans>& spans,
                       const NetReplay& net, const LayerExtras& extras);

/// Write the spans as JSONL (one destination per line).
void write_spans(const std::string& path, const std::vector<TraceSpans>& spans);

}  // namespace e2ebench

#endif  // E2EBENCH_LAYERS_H
