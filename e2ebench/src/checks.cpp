#include "checks.h"

#include <cmath>
#include <optional>
#include <set>
#include <utility>

#include "json_lite.h"

namespace e2ebench {

using json::Value;

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t hash) noexcept {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::vector<topo::GroundTruth> generate_routes(
    const topo::GeneratorConfig& generator, std::size_t distinct,
    std::uint64_t seed, std::size_t count) {
  topo::SurveyWorld world(generator, distinct, seed);
  std::vector<topo::GroundTruth> routes;
  routes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) routes.push_back(world.next_route());
  return routes;
}

std::size_t branching_points(const topo::MultipathGraph& graph) {
  std::size_t count = 0;
  for (topo::VertexId v = 0; v < graph.vertex_count(); ++v) {
    if (graph.out_degree(v) >= 2) ++count;
  }
  return count;
}

FailureBound::FailureBound(double alpha, int max_branching)
    : epsilon_(1.0 -
               std::pow(1.0 - alpha, 1.0 / static_cast<double>(max_branching))) {}

void FailureBound::add(std::size_t branching, bool differs) {
  ++routes_;
  if (differs) ++differing_;
  expected_ += 1.0 - std::pow(1.0 - epsilon_, static_cast<double>(branching));
}

void FailureBound::merge(const FailureBound& other) {
  routes_ += other.routes_;
  differing_ += other.differing_;
  expected_ += other.expected_;
}

std::size_t FailureBound::limit() const {
  constexpr double kTail = 1e-6;
  const double n = static_cast<double>(routes_);
  if (routes_ == 0 || expected_ <= 0.0) return 0;
  const double p = expected_ / n;
  if (p >= 1.0) return routes_;
  double cdf = 0.0;
  for (std::size_t k = 0; k <= routes_; ++k) {
    const double kd = static_cast<double>(k);
    const double log_pmf = std::lgamma(n + 1.0) - std::lgamma(kd + 1.0) -
                           std::lgamma(n - kd + 1.0) + kd * std::log(p) +
                           (n - kd) * std::log1p(-p);
    cdf += std::exp(log_pmf);
    if (1.0 - cdf <= kTail) return k;
  }
  return routes_;
}

std::vector<std::string> split_lines(std::string_view text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) {
      lines.emplace_back(text.substr(start));
      break;
    }
    lines.emplace_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

namespace {

/// Address of a discovered vertex; nullopt for a star (null) or garbage.
std::optional<net::IpAddress> address_of(const Value& text) {
  if (!text.is(Value::Kind::kString)) return std::nullopt;
  return net::IpAddress::parse(text.text);
}

bool whole_number(const Value* v) {
  return v != nullptr && v->is(Value::Kind::kNumber) && v->number >= 0.0 &&
         std::floor(v->number) == v->number;
}

struct GraphFacts {
  std::size_t hops = 0;
  std::size_t vertices = 0;
  std::size_t edges = 0;
  std::size_t stars = 0;
  std::vector<std::size_t> discovered;  ///< addressed vertices per hop
  std::size_t excused = 0;  ///< false edges out of a hop with a missed vertex
};

/// True when the trace missed some true vertex at `hop`.
bool hop_incomplete(const GraphFacts& ip, const topo::MultipathGraph& truth,
                    std::size_t hop) {
  return hop < truth.hop_count() &&
         ip.discovered[hop] <
             truth.vertices_at(static_cast<std::uint16_t>(hop)).size();
}

/// Shape checks shared by both graph levels: declared counts match the
/// hop lists, every vertex is {"addr", "successors"}, and every successor
/// names a vertex at the next hop of the same graph. `visit_vertex(hop,
/// addr)` and `visit_edge(hop, from, to)` judge each element against the
/// ground truth and return an error text, or "" to accept.
template <typename VertexFn, typename EdgeFn>
std::string check_graph(const Value* graph, GraphFacts& facts,
                        VertexFn&& visit_vertex, EdgeFn&& visit_edge) {
  if (graph == nullptr || !graph->is(Value::Kind::kObject)) {
    return "graph missing";
  }
  const Value* hops = graph->get("hops");
  if (hops == nullptr || !hops->is(Value::Kind::kArray)) return "hops missing";
  facts.hops = hops->items.size();
  std::vector<std::set<net::IpAddress>> present(facts.hops);
  for (std::size_t h = 0; h < facts.hops; ++h) {
    const Value& hop = hops->items[h];
    if (!hop.is(Value::Kind::kArray)) return "hop is not an array";
    for (const Value& vertex : hop.items) {
      const Value* addr = vertex.get("addr");
      const Value* succ = vertex.get("successors");
      if (addr == nullptr || succ == nullptr ||
          !succ->is(Value::Kind::kArray)) {
        return "malformed vertex";
      }
      ++facts.vertices;
      if (addr->is(Value::Kind::kNull)) {
        ++facts.stars;
        continue;
      }
      const auto a = address_of(*addr);
      if (!a) return "unparsable address " + addr->text;
      if (!present[h].insert(*a).second) return "duplicate vertex " + addr->text;
      if (auto err = visit_vertex(h, *a); !err.empty()) return err;
    }
    facts.discovered.push_back(present[h].size());
  }
  for (std::size_t h = 0; h < facts.hops; ++h) {
    for (const Value& vertex : hops->items[h].items) {
      const Value* succ = vertex.get("successors");
      if (succ->items.empty()) continue;
      const auto from = address_of(*vertex.get("addr"));
      if (!from) return "star vertex with successors";
      for (const Value& s : succ->items) {
        const auto to = address_of(s);
        if (!to || h + 1 >= facts.hops || present[h + 1].count(*to) == 0) {
          return "successor " + s.text + " is not a vertex of the next hop";
        }
        ++facts.edges;
        if (auto err = visit_edge(h, *from, *to); !err.empty()) return err;
      }
    }
  }
  if (!whole_number(graph->get("hop_count")) ||
      graph->get("hop_count")->number != static_cast<double>(facts.hops) ||
      !whole_number(graph->get("vertex_count")) ||
      graph->get("vertex_count")->number !=
          static_cast<double>(facts.vertices) ||
      !whole_number(graph->get("edge_count")) ||
      graph->get("edge_count")->number != static_cast<double>(facts.edges)) {
    return "declared graph counts disagree with its hops";
  }
  return {};
}

/// IP level: every vertex and edge must exist in the ground truth. One
/// exception is counted, not failed: a false edge out of a hop where the
/// trace missed a true vertex. With one vertex discovered at a hop, the
/// MDA takes every flow at the next hop to have passed through it
/// (core/mda.cpp, free passage), so a missed vertex, itself an
/// alpha-bounded discovery failure, turns the flows through it into false
/// edges from its sibling. Such traces differ from the ground truth and
/// count against the alpha bound.
std::string check_ip_graph(const Value* graph, const topo::GroundTruth& truth,
                           GraphFacts& facts) {
  const auto& g = truth.graph;
  return check_graph(
      graph, facts,
      [&](std::size_t hop, const net::IpAddress& addr) -> std::string {
        if (hop >= g.hop_count() ||
            g.find_at(static_cast<std::uint16_t>(hop), addr) ==
                topo::kInvalidVertex) {
          return "false vertex " + addr.to_string() + " at hop " +
                 std::to_string(hop);
        }
        return {};
      },
      [&](std::size_t hop, const net::IpAddress& from,
          const net::IpAddress& to) -> std::string {
        const auto u = g.find_at(static_cast<std::uint16_t>(hop), from);
        const auto v = g.find_at(static_cast<std::uint16_t>(hop + 1), to);
        if (v != topo::kInvalidVertex && g.has_edge(u, v)) return {};
        if (hop_incomplete(facts, g, hop)) {
          ++facts.excused;
          return {};
        }
        return "false edge " + from.to_string() + " -> " + to.to_string();
      });
}

/// Router level: a merged vertex is named by one of its interfaces, so
/// each vertex must be a true interface at its hop and each edge must join
/// two routers that some true IP-level edge joins, unless it merges an
/// excused IP-level edge (see check_ip_graph).
std::string check_router_graph(const Value* graph,
                               const topo::GroundTruth& truth,
                               const GraphFacts& ip, GraphFacts& facts) {
  const auto& g = truth.graph;
  return check_graph(
      graph, facts,
      [&](std::size_t hop, const net::IpAddress& addr) -> std::string {
        if (hop >= g.hop_count() ||
            g.find_at(static_cast<std::uint16_t>(hop), addr) ==
                topo::kInvalidVertex) {
          return "false router vertex " + addr.to_string();
        }
        return {};
      },
      [&](std::size_t hop, const net::IpAddress& from,
          const net::IpAddress& to) -> std::string {
        const auto h = static_cast<std::uint16_t>(hop);
        const auto from_router =
            truth.vertex_router[g.find_at(h, from)];
        const auto v = g.find_at(static_cast<std::uint16_t>(hop + 1), to);
        if (v != topo::kInvalidVertex) {
          const auto to_router = truth.vertex_router[v];
          for (const auto u : g.vertices_at(h)) {
            if (truth.vertex_router[u] != from_router) continue;
            for (const auto w : g.successors(u)) {
              if (truth.vertex_router[w] == to_router) return {};
            }
          }
        }
        if (ip.excused > 0 && hop_incomplete(ip, g, hop)) return {};
        return "false router edge " + from.to_string() + " -> " +
               to.to_string();
      });
}

/// Every alias set the final round accepts (the sets the router-level
/// graph is merged from) must hold interfaces of one true router at the
/// set's hop. Earlier rounds are progress snapshots; round 0 in particular
/// resolves on the trace's own replies, below the MBT's sample minimum.
std::string check_alias_sets(const Value* rounds,
                             const topo::GroundTruth& truth) {
  if (rounds == nullptr || !rounds->is(Value::Kind::kArray) ||
      rounds->items.empty()) {
    return "rounds missing";
  }
  const auto& g = truth.graph;
  const Value* sets = rounds->items.back().get("alias_sets");
  if (sets == nullptr || !sets->is(Value::Kind::kArray)) {
    return "alias_sets missing";
  }
  for (const Value& set : sets->items) {
    const Value* hop = set.get("hop");
    const Value* outcome = set.get("outcome");
    const Value* members = set.get("members");
    if (!whole_number(hop) || outcome == nullptr ||
        !outcome->is(Value::Kind::kString) || members == nullptr ||
        !members->is(Value::Kind::kArray)) {
      return "malformed alias set";
    }
    if (outcome->text != "accept") continue;
    std::optional<std::uint32_t> router;
    for (const Value& m : members->items) {
      const auto addr = address_of(m);
      const auto v =
          addr && hop->number < g.hop_count()
              ? g.find_at(static_cast<std::uint16_t>(hop->number), *addr)
              : topo::kInvalidVertex;
      if (v == topo::kInvalidVertex) {
        return "alias member " + m.text + " is not a true interface";
      }
      if (router && *router != truth.vertex_router[v]) {
        return "false alias set at hop " +
               std::to_string(static_cast<int>(hop->number)) + " (" +
               m.text + " belongs to another router)";
      }
      router = truth.vertex_router[v];
    }
  }
  return {};
}

struct LineFacts {
  std::uint64_t packets = 0;
  bool differs = false;
  std::size_t excused = 0;
};

std::string check_line(std::string_view line, std::size_t index,
                       const topo::GroundTruth& truth, Payload payload,
                       LineFacts& facts) {
  const auto doc = json::parse(line);
  if (!doc || !doc->is(Value::Kind::kObject)) return "not a JSON object";
  const Value* idx = doc->get("index");
  if (!whole_number(idx) || idx->number != static_cast<double>(index)) {
    return "line out of order: expected index " + std::to_string(index);
  }
  const Value* dest = doc->get("destination");
  if (dest == nullptr || !dest->is(Value::Kind::kString) ||
      dest->text != truth.destination.to_string()) {
    return "destination label differs from the generated route";
  }
  GraphFacts ip;
  if (payload == Payload::kTrace) {
    const Value* trace = doc->get("trace");
    if (trace == nullptr || !whole_number(trace->get("packets"))) {
      return "trace payload missing";
    }
    facts.packets = static_cast<std::uint64_t>(trace->get("packets")->number);
    if (auto err = check_ip_graph(trace->get("graph"), truth, ip);
        !err.empty()) {
      return err;
    }
  } else {
    const Value* ml = doc->get("multilevel");
    if (ml == nullptr || !whole_number(ml->get("total_packets"))) {
      return "multilevel payload missing";
    }
    facts.packets = static_cast<std::uint64_t>(ml->get("total_packets")->number);
    if (auto err = check_ip_graph(ml->get("ip_level"), truth, ip);
        !err.empty()) {
      return err;
    }
    GraphFacts router;
    if (auto err =
            check_router_graph(ml->get("router_level"), truth, ip, router);
        !err.empty()) {
      return err;
    }
    if (router.hops != ip.hops) return "router graph hop count differs";
    if (auto err = check_alias_sets(ml->get("rounds"), truth); !err.empty()) {
      return err;
    }
  }
  // Short of excused edges, the discovered graph is a subgraph of the
  // truth: it equals the truth exactly when the counts do.
  facts.excused = ip.excused;
  facts.differs = ip.excused > 0 || ip.stars > 0 ||
                  ip.hops != truth.graph.hop_count() ||
                  ip.vertices != truth.graph.vertex_count() ||
                  ip.edges != truth.graph.edge_count();
  return {};
}

}  // namespace

BatchCheck check_batch(std::span<const std::string> lines,
                       std::span<const topo::GroundTruth> routes,
                       Payload payload, std::uint64_t reported_packets,
                       FailureBound& bound) {
  constexpr std::size_t kMaxErrors = 4;
  BatchCheck out;
  const auto note = [&](std::string text) {
    if (out.errors.size() < kMaxErrors) out.errors.push_back(std::move(text));
  };
  const std::size_t checked = std::min(lines.size(), routes.size());
  for (std::size_t i = 0; i < checked; ++i) {
    LineFacts facts;
    if (auto err = check_line(lines[i], i, routes[i], payload, facts);
        !err.empty()) {
      ++out.failed;
      note("line " + std::to_string(i) + ": " + err);
      continue;
    }
    out.packets += facts.packets;
    out.excused_false_edges += facts.excused;
    bound.add(branching_points(routes[i].graph), facts.differs);
  }
  if (lines.size() != routes.size()) {
    note(std::to_string(lines.size()) + " lines for " +
         std::to_string(routes.size()) + " destinations");
    out.failed = routes.size();
  } else if (out.failed == 0 && out.packets != reported_packets) {
    note("line packet counts sum to " + std::to_string(out.packets) +
         ", the run reported " + std::to_string(reported_packets));
    out.failed = routes.size();
  }
  return out;
}

}  // namespace e2ebench
