// Output checks, each against the generated ground truth or a property
// the program must have, never against a stored copy of earlier output:
//
//   * every destination yields exactly one well-formed line, in index
//     order, labelled with its generated destination address;
//   * the per-line packet counts sum to the run's reported total;
//   * no discovered vertex or edge is absent from the route's ground-truth
//     graph (the Paris no-false-link property: controlled flow identifiers
//     never stitch two paths together), save the edges the MDA infers out
//     of a hop where it missed a vertex, which count against alpha;
//   * every alias set the final round accepts maps to exactly one
//     ground-truth router;
//   * the number of destinations whose graph differs from the ground truth
//     stays under an upper binomial bound derived from alpha and each
//     route's own branching points.
#ifndef E2EBENCH_CHECKS_H
#define E2EBENCH_CHECKS_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"
#include "topology/generator.h"
#include "topology/ground_truth.h"

namespace e2ebench {

/// What a JSONL line carries: an IP-level trace (`"trace"`) or a
/// multilevel result (`"multilevel"`).
enum class Payload { kTrace, kMultilevel };

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/// 64-bit FNV-1a, chainable: fnv1a(b, fnv1a(a)) digests a then b.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes,
                                  std::uint64_t hash = kFnvOffset) noexcept;

/// The routes a job's synthetic world yields, in destination order: the
/// same SurveyWorld the job builds, regenerated independently.
[[nodiscard]] std::vector<topo::GroundTruth> generate_routes(
    const topo::GeneratorConfig& generator, std::size_t distinct,
    std::uint64_t seed, std::size_t count);

/// Vertices of `graph` with two or more successors.
[[nodiscard]] std::size_t branching_points(const topo::MultipathGraph& graph);

/// Counts destinations whose discovered graph differs from the ground
/// truth and bounds that count. The MDA splits its failure bound alpha
/// over at most `max_branching` branching vertices, eps = 1 -
/// (1 - alpha)^(1/B), so a route with b branching points is missed with
/// probability at most p = 1 - (1 - eps)^b. The number of misses over n
/// independent routes is then dominated by Binomial(n, mean p) above its
/// mean (Hoeffding, 1956); limit() is that binomial's upper quantile at a
/// one-in-a-million tail.
class FailureBound {
 public:
  FailureBound(double alpha, int max_branching);

  void add(std::size_t branching, bool differs);
  /// Fold in the routes `other` has counted.
  void merge(const FailureBound& other);

  [[nodiscard]] std::size_t routes() const noexcept { return routes_; }
  [[nodiscard]] std::size_t differing() const noexcept { return differing_; }
  /// Expected misses if every route failed at its bound.
  [[nodiscard]] double expected() const noexcept { return expected_; }
  [[nodiscard]] std::size_t limit() const;
  [[nodiscard]] bool holds() const { return differing_ <= limit(); }

 private:
  double epsilon_;
  std::size_t routes_ = 0;
  std::size_t differing_ = 0;
  double expected_ = 0.0;
};

/// Outcome of checking one batch of lines (one fleet job, one router
/// survey, one daemon job).
struct BatchCheck {
  /// Destinations that failed a check. A wrong packet total, or lines
  /// missing or left over, fail every destination of the batch.
  std::size_t failed = 0;
  std::uint64_t packets = 0;  ///< sum of the per-line packet counts
  /// False edges out of a hop where the trace missed a true vertex: not
  /// failures, the trace counts against the alpha bound (check_ip_graph).
  std::size_t excused_false_edges = 0;
  std::vector<std::string> errors;  ///< the first few failure texts
};

/// Check `lines` (JSONL without newlines) against the batch's routes and
/// the packet total the program reported; every checked line feeds
/// `bound`.
[[nodiscard]] BatchCheck check_batch(std::span<const std::string> lines,
                                     std::span<const topo::GroundTruth> routes,
                                     Payload payload,
                                     std::uint64_t reported_packets,
                                     FailureBound& bound);

/// Split a JSONL buffer into lines. Every line must end in '\n'; a torn
/// last line is returned too, so the line count check catches it.
[[nodiscard]] std::vector<std::string> split_lines(std::string_view text);

}  // namespace e2ebench

#endif  // E2EBENCH_CHECKS_H
