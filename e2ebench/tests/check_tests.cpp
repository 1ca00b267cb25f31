// Checker tests: every output check of the benchmark must accept the
// program's real output and reject a deliberately corrupted copy of it.
//
//   python3 e2ebench/run.py --self-test
//
// Prints one PASS/FAIL line per case; exits non-zero when any case fails.
#include <algorithm>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "checks.h"
#include "core/multilevel.h"
#include "core/trace_json.h"
#include "core/validation.h"
#include "daemon/fleet_job.h"
#include "json_lite.h"
#include "orchestrator/fleet.h"
#include "orchestrator/result_sink.h"
#include "probe/engine.h"
#include "probe/simulated_network.h"
#include "survey/ip_survey.h"
#include "survey/router_survey.h"

using namespace e2ebench;
using namespace mmlpt;

namespace {

int failures = 0;

void expect(bool ok, const std::string& name) {
  std::cout << (ok ? "PASS " : "FAIL ") << name << '\n';
  if (!ok) ++failures;
}

BatchCheck check(const std::vector<std::string>& lines,
                 const std::vector<topo::GroundTruth>& routes, Payload payload,
                 std::uint64_t packets, FailureBound* bound = nullptr) {
  FailureBound local(0.05, 30);
  return check_batch(lines, routes, payload, packets, bound ? *bound : local);
}

/// A real fleet job: its lines, packet total and ground-truth routes.
struct FleetOutput {
  daemon::FleetJobSpec spec;
  std::vector<std::string> lines;
  std::uint64_t packets = 0;
  std::vector<topo::GroundTruth> routes;
};

FleetOutput fleet_output() {
  FleetOutput out;
  out.spec.routes = 24;
  out.spec.seed = 7;
  out.spec.window = 16;
  orchestrator::FleetScheduler fleet({});
  daemon::FleetJobHooks hooks;
  hooks.on_line = [&](std::size_t, std::string line) {
    out.lines.push_back(std::move(line));
  };
  out.packets = daemon::run_fleet_job(fleet, nullptr, out.spec,
                                      fakeroute::SimConfig{}, hooks)
                    .packets;
  topo::GeneratorConfig generator;
  out.routes = generate_routes(generator, out.spec.distinct, out.spec.seed,
                               out.spec.routes);
  return out;
}

core::TraceResult retrace(const FleetOutput& out, std::size_t i) {
  core::TraceConfig config;
  config.window = out.spec.window;
  return core::run_trace(out.routes[i], core::Algorithm::kMdaLite, config,
                         fakeroute::SimConfig{},
                         survey::ip_trace_seed(out.spec.seed, i));
}

std::string line_of(const FleetOutput& out, std::size_t i,
                    const core::TraceResult& trace) {
  return orchestrator::destination_line(
      i, out.routes[i].destination.to_string(),
      core::stop_set_envelope_fields(trace), "trace",
      core::trace_to_json(trace));
}

/// Retrace destination `i` of the fleet job, fully discovered, with a
/// false edge added: an edge between adjacent-hop vertices the ground
/// truth does not join. Empty when the trace offers no such pair.
std::string line_with_false_edge(const FleetOutput& out, std::size_t i) {
  auto trace = retrace(out, i);
  auto& g = trace.graph;
  const auto& truth = out.routes[i].graph;
  if (!topo::same_topology(g, truth)) return {};
  for (std::uint16_t h = 0; h + 1 < g.hop_count(); ++h) {
    for (const auto u : g.vertices_at(h)) {
      for (const auto w : g.vertices_at(h + 1)) {
        const auto tu = truth.find_at(h, g.vertex(u).addr);
        const auto tw = truth.find_at(h + 1, g.vertex(w).addr);
        if (g.has_edge(u, w) || truth.has_edge(tu, tw)) continue;
        g.add_edge(u, w);
        return line_of(out, i, trace);
      }
    }
  }
  return {};
}

/// Retrace destination `i` as the MDA reports it after missing a vertex:
/// at a hop with exactly two vertices, drop the second and hang its
/// successors off the first (every flow at the next hop is taken to have
/// passed the one vertex left). Empty when the trace has no such hop.
std::string line_with_missed_sibling(const FleetOutput& out, std::size_t i) {
  auto trace = retrace(out, i);
  const auto& g = trace.graph;
  if (!topo::same_topology(g, out.routes[i].graph)) return {};
  for (std::uint16_t h = 1; h + 1 < g.hop_count(); ++h) {
    const auto at = g.vertices_at(h);
    if (at.size() != 2 || g.successors(at[0]).size() != 1 ||
        g.successors(at[1]).size() != 1 ||
        g.successors(at[0])[0] == g.successors(at[1])[0]) {
      continue;
    }
    const auto keep = at[0];
    const auto drop = at[1];
    topo::MultipathGraph rebuilt;
    std::vector<topo::VertexId> id(g.vertex_count(), topo::kInvalidVertex);
    for (std::uint16_t k = 0; k < g.hop_count(); ++k) {
      rebuilt.add_hop();
      for (const auto v : g.vertices_at(k)) {
        if (v != drop) id[v] = rebuilt.add_vertex(k, g.vertex(v).addr);
      }
    }
    for (topo::VertexId v = 0; v < g.vertex_count(); ++v) {
      const auto from = v == drop ? keep : v;
      for (const auto s : g.successors(v)) {
        if (s != drop) rebuilt.add_edge(id[from], id[s]);
      }
    }
    trace.graph = std::move(rebuilt);
    return line_of(out, i, trace);
  }
  return {};
}

void fleet_cases() {
  const auto out = fleet_output();
  const auto& lines = out.lines;
  const auto& routes = out.routes;

  const auto good = check(lines, routes, Payload::kTrace, out.packets);
  expect(good.failed == 0 && good.packets == out.packets,
         "fleet: the program's own output passes");
  for (const auto& e : good.errors) std::cout << "  " << e << '\n';

  auto dropped = lines;
  dropped.erase(dropped.begin() + 5);
  expect(check(dropped, routes, Payload::kTrace, out.packets).failed ==
             routes.size(),
         "fleet: a dropped line fails the batch");

  auto swapped = lines;
  std::swap(swapped[3], swapped[4]);
  expect(check(swapped, routes, Payload::kTrace, out.packets).failed == 2,
         "fleet: two reordered lines both fail");

  expect(check(lines, routes, Payload::kTrace, out.packets + 1).failed ==
             routes.size(),
         "fleet: a wrong packet total fails the batch");

  auto torn = lines;
  torn[7].resize(torn[7].size() / 2);
  expect(check(torn, routes, Payload::kTrace, out.packets).failed >= 1,
         "fleet: a torn line fails");

  auto relabelled = lines;
  const auto label = routes[2].destination.to_string();
  const auto at = relabelled[2].find(label);
  relabelled[2].replace(at, label.size(), routes[3].destination.to_string());
  expect(check(relabelled, routes, Payload::kTrace, out.packets).failed == 1,
         "fleet: a wrong destination label fails");

  // A vertex the route does not have: swap a hop-1 address for the
  // destination of another route.
  auto false_vertex = lines;
  const auto first_hop =
      routes[9].graph.vertex(routes[9].graph.vertices_at(1)[0]).addr.to_string();
  const auto foreign = routes[10].destination.to_string();
  for (std::size_t pos = 0;
       (pos = false_vertex[9].find("\"" + first_hop + "\"", pos)) !=
       std::string::npos;
       pos += foreign.size()) {
    false_vertex[9].replace(pos + 1, first_hop.size(), foreign);
  }
  expect(check(false_vertex, routes, Payload::kTrace, out.packets).failed == 1,
         "fleet: a false vertex fails");

  bool injected = false;
  for (std::size_t i = 0; i < routes.size() && !injected; ++i) {
    auto line = line_with_false_edge(out, i);
    if (line.empty()) continue;
    injected = true;
    auto false_edge = lines;
    false_edge[i] = std::move(line);
    const auto result = check(false_edge, routes, Payload::kTrace, out.packets);
    expect(result.failed == 1 && !result.errors.empty() &&
               result.errors[0].find("false edge") != std::string::npos,
           "fleet: an injected false edge fails");
  }
  expect(injected, "fleet: some trace offers a pair to join falsely");

  bool missed = false;
  for (std::size_t i = 0; i < routes.size() && !missed; ++i) {
    auto line = line_with_missed_sibling(out, i);
    if (line.empty()) continue;
    missed = true;
    auto lines_missed = lines;
    lines_missed[i] = std::move(line);
    FailureBound bound(0.05, 30);
    const auto result =
        check(lines_missed, routes, Payload::kTrace, out.packets, &bound);
    expect(result.failed == 0 && result.excused_false_edges == 1 &&
               bound.differing() == 1,
           "fleet: a false edge out of a hop with a missed vertex counts "
           "against alpha");
  }
  expect(missed, "fleet: some trace has a two-vertex hop to miss");
}

void router_cases() {
  survey::RouterSurveyConfig config;
  config.routes = 8;
  config.distinct_diamonds = 20;
  config.multilevel.trace.window = 16;
  config.seed = 11;
  std::ostringstream stream;
  std::uint64_t packets = 0;
  {
    orchestrator::ResultSink sink(stream);
    packets = survey::run_router_survey(config, &sink).total_packets;
  }
  const auto lines = split_lines(stream.str());
  const auto routes = generate_routes(config.generator,
                                      config.distinct_diamonds, config.seed,
                                      config.routes);
  const auto good = check(lines, routes, Payload::kMultilevel, packets);
  expect(good.failed == 0, "router: the program's own output passes");
  for (const auto& e : good.errors) std::cout << "  " << e << '\n';

  // Retrace a destination the way the survey does, then accept an alias
  // set joining interfaces of two different true routers.
  const std::uint64_t base_seed = config.seed * 0x2545F491ULL + 99;
  bool injected = false;
  for (std::size_t i = 0; i < routes.size() && !injected; ++i) {
    const auto& route = routes[i];
    fakeroute::Simulator simulator(route, config.sim, base_seed + i);
    probe::SimulatedNetwork network(simulator);
    probe::ProbeEngine::Config engine_config;
    engine_config.source = route.source;
    engine_config.destination = route.destination;
    probe::ProbeEngine engine(network, engine_config);
    auto ml = core::MultilevelTracer(engine, config.multilevel).run();
    const auto line = [&] {
      return orchestrator::destination_line(
          i, route.destination.to_string(), core::stop_set_envelope_fields(ml),
          "multilevel", core::multilevel_to_json(ml));
    };
    if (line() != lines[i]) {
      expect(false, "router: retracing reproduces the survey's line");
      return;
    }
    const auto& g = ml.trace.graph;
    for (std::uint16_t h = 0; h < g.hop_count() && !injected; ++h) {
      const auto vs = g.vertices_at(h);
      for (std::size_t a = 0; a < vs.size() && !injected; ++a) {
        for (std::size_t b = a + 1; b < vs.size() && !injected; ++b) {
          const auto ta = route.graph.find_at(h, g.vertex(vs[a]).addr);
          const auto tb = route.graph.find_at(h, g.vertex(vs[b]).addr);
          if (route.vertex_router[ta] == route.vertex_router[tb]) continue;
          alias::AliasSet set;
          set.members = {g.vertex(vs[a]).addr, g.vertex(vs[b]).addr};
          set.outcome = alias::Outcome::kAccept;
          ml.rounds.back().sets_by_hop[h].push_back(set);
          auto corrupted = lines;
          corrupted[i] = line();
          const auto result =
              check(corrupted, routes, Payload::kMultilevel, packets);
          expect(result.failed == 1 && !result.errors.empty() &&
                     result.errors[0].find("false alias set") !=
                         std::string::npos,
                 "router: a false alias set fails");
          injected = true;
        }
      }
    }
  }
  expect(injected, "router: some hop holds two true routers");
}

void bound_cases() {
  FailureBound none(0.05, 30);
  for (int i = 0; i < 1000; ++i) none.add(4, false);
  expect(none.holds(), "bound: no differing destination holds");

  FailureBound few(0.05, 30);
  for (int i = 0; i < 1000; ++i) few.add(4, i < 10);
  expect(few.holds(), "bound: 10 of 1000 at 4 branching points holds");

  FailureBound many(0.05, 30);
  for (int i = 0; i < 1000; ++i) many.add(4, i < 40);
  expect(!many.holds(), "bound: 40 of 1000 at 4 branching points fails");

  FailureBound flat(0.05, 30);
  for (int i = 0; i < 1000; ++i) flat.add(0, i == 0);
  expect(!flat.holds(), "bound: a miss on a route without branching fails");
}

void json_cases() {
  expect(json::parse(R"({"a":[1,2.5,-3e2,"xé",true,null]})").has_value(),
         "json: a valid document parses");
  expect(!json::parse(R"({"a":1} x)").has_value(),
         "json: trailing bytes are rejected");
  expect(!json::parse(R"({"a":1,})").has_value(),
         "json: a trailing comma is rejected");
  expect(!json::parse(R"({"a":"b)").has_value(),
         "json: an unterminated string is rejected");
}

}  // namespace

int main() {
  json_cases();
  bound_cases();
  fleet_cases();
  router_cases();
  std::cout << (failures == 0 ? "all checker tests passed\n"
                              : std::to_string(failures) + " checker tests failed\n");
  return failures == 0 ? 0 : 1;
}
