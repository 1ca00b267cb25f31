#include "common.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

extern char** environ;

namespace e2ebench {

void Report::error(std::string text) {
  correct = false;
  if (errors.size() < 8) errors.push_back(std::move(text));
}

void Report::add(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

namespace {

double rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // in kB
    }
  }
  return 0.0;
}

}  // namespace

RssSampler::RssSampler()
    : thread_([this] {
        std::unique_lock lock(mutex_);
        while (!stopping_) {
          lock.unlock();
          const double mb = rss_mb();
          const double at = seconds_between(start_, Clock::now());
          lock.lock();
          samples_.emplace_back(at, mb);
          wake_.wait_for(lock, std::chrono::milliseconds(20),
                         [this] { return stopping_; });
        }
      }) {}

RssSampler::~RssSampler() { (void)stop(); }

std::vector<std::pair<double, double>> RssSampler::stop() {
  {
    const std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
  return std::move(samples_);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a,
                          std::uint64_t b) noexcept {
  // splitmix64 over the three inputs; kept below 2^31 so the seed reads
  // the same in every tool that prints it.
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ULL + a * 0xBF58476D1CE4E5B9ULL +
                    b * 0x94D049BB133111EBULL + 1;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return (x & 0x7FFFFFFFULL) + 1;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

double measure_setup(const Options& options, int launches) {
  char self[4096];
  const ssize_t len = readlink("/proc/self/exe", self, sizeof self - 1);
  if (len <= 0) throw std::runtime_error("cannot locate the benchmark binary");
  self[len] = '\0';
  const std::string seed = std::to_string(options.seed);
  std::vector<std::string> args = {self,           "--setup-probe",
                                   "--workload",   options.workload,
                                   "--seed",       seed,
                                   "--out-dir",    options.out_dir};
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  // The first launches pay for cold caches and idle cores; they are run
  // but not counted.
  constexpr int kWarmup = 3;
  std::vector<double> times;
  for (int i = 0; i < kWarmup + launches; ++i) {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    pid_t pid = 0;
    const auto start = Clock::now();
    const int rc =
        posix_spawn(&pid, self, &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    if (rc != 0) {
      close(fds[0]);
      throw std::runtime_error("cannot launch the set-up probe");
    }
    char ready = 0;
    const ssize_t got = read(fds[0], &ready, 1);
    const auto end = Clock::now();
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (got != 1 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("set-up probe failed");
    }
    if (i >= kWarmup) times.push_back(seconds_between(start, end));
  }
  return median(times);
}

void signal_setup_ready() {
  const char ready = 'R';
  if (write(STDOUT_FILENO, &ready, 1) != 1) std::_Exit(1);
}

void print_report(const Report& report, const std::string& workload) {
  for (const auto& e : report.errors) {
    std::cerr << "e2ebench " << workload << ": " << e << '\n';
  }
  std::string out = "{\"correct\":";
  out += report.correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(report.attempted);
  out += ",\"failed\":" + std::to_string(report.failed);
  out += ",\"metrics\":{";
  bool first = true;
  for (const auto& m : report.metrics) {
    char number[64];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    const auto [end, ec] = std::to_chars(number, number + sizeof number, value);
    out += first ? "" : ",";
    first = false;
    out += "\"" + m.name + "\":{\"value\":" + std::string(number, end) +
           ",\"unit\":\"" + m.unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

}  // namespace e2ebench
