// e2ebench: one command that runs a named workload through the entry
// points the shipped tools use, checks every output against the ground
// truth, and prints the end-to-end metrics (--trace 0) or the per-layer
// metrics of a traced run (--trace 1) as the last stdout line:
//
//   e2ebench --workload fleet-ip|router-ml|daemon-unmerged --seed N
//            --seconds S --trace 0|1 [--out-dir DIR]
//
// See e2ebench/README.md for the workloads and the metric definitions.
#include <charconv>
#include <exception>
#include <iostream>
#include <string_view>

#include "workloads.h"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "e2ebench: " << why
            << "\nusage: e2ebench --workload fleet-ip|router-ml|daemon-unmerged"
               " --seed N --seconds S --trace 0|1 [--out-dir DIR]\n";
  std::exit(2);
}

template <typename T>
T number(std::string_view flag, std::string_view text) {
  T value{};
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size()) {
    usage("bad value for " + std::string(flag) + ": " + std::string(text));
  }
  return value;
}

e2ebench::Options parse(int argc, char** argv) {
  e2ebench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--setup-probe") {
      options.setup_probe = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + std::string(flag));
    const std::string_view value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = number<std::uint64_t>(flag, value);
    } else if (flag == "--seconds") {
      options.seconds = number<double>(flag, value);
    } else if (flag == "--trace") {
      const int trace = number<int>(flag, value);
      if (trace != 0 && trace != 1) usage("--trace takes 0 or 1");
      options.trace = trace == 1;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      usage("unknown flag " + std::string(flag));
    }
  }
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = parse(argc, argv);
  using Run = e2ebench::Report (*)(const e2ebench::Options&);
  using Setup = void (*)(const e2ebench::Options&);
  Run run = nullptr;
  Setup setup = nullptr;
  if (options.workload == "fleet-ip") {
    run = e2ebench::run_fleet_ip;
    setup = e2ebench::setup_fleet_ip;
  } else if (options.workload == "router-ml") {
    run = e2ebench::run_router_ml;
    setup = e2ebench::setup_router_ml;
  } else if (options.workload == "daemon-unmerged") {
    run = e2ebench::run_daemon_unmerged;
    setup = e2ebench::setup_daemon_unmerged;
  } else {
    usage("unknown workload '" + options.workload + "'");
  }
  try {
    if (options.setup_probe) {
      setup(options);
      return 0;
    }
    const auto report = run(options);
    e2ebench::print_report(report, options.workload);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "e2ebench " << options.workload << ": " << e.what() << '\n';
    return 1;
  }
}
