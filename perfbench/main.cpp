/// \file main.cpp
/// \brief Command line of the repository benchmark.
///
///   perfbench --workload daq|service|analysis [--seed N] [--seconds S]
///             [--trace 0|1] [--trace-out FILE] [--tamper]
///
/// Prints a human-readable account, then as its last stdout line one JSON
/// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
/// metrics with --trace 0, the per-layer metrics with --trace 1.  Exits 1
/// when an output check fails, 2 on a usage or environment error.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "core/simd_dispatch.hpp"
#include "harness.hpp"
#include "tpc/dataset.hpp"
#include "util/parallel.hpp"
#include "util/topology.hpp"

namespace {

// Each of these changes what the program runs (SIMD tier, pinning, OpenMP
// team size or spinning); OMP_NUM_THREADS=1 alone moves int8 stream
// throughput by a quarter.  The benchmark measures the defaults only.
constexpr const char* kRefusedEnv[] = {"NC_SIMD", "NC_TOPOLOGY", "OMP_NUM_THREADS",
                                       "OMP_WAIT_POLICY", "GOMP_SPINCOUNT"};

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload daq|service|analysis "
               "[--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE] [--tamper]\n",
               msg);
  return 2;
}

/// Shortest text that reads back as the same double.
std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void print_result(const perfbench::Result& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    if (i) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + number(m.value) + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  cfg.seed = nc::tpc::DatasetConfig{}.seed;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tamper") {
      cfg.tamper = true;
    } else if (!has_value) {
      return usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      cfg.workload = argv[++i];
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace") {
      cfg.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--trace-out") {
      cfg.trace_out = argv[++i];
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  bool known = false;
  for (const auto& name : perfbench::workload_names()) known |= name == cfg.workload;
  if (!known) return usage(("unknown workload '" + cfg.workload + "'").c_str());
  if (!(cfg.seconds > 0.0)) return usage("--seconds must be positive");
  for (const char* var : kRefusedEnv) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set: the benchmark measures "
                   "the program's defaults\n",
                   var);
      return 2;
    }
  }

  std::printf("host: simd %s, nproc %zu, numa nodes %d, openmp max threads %d\n",
              nc::core::simd::isa_name(nc::core::simd::active_isa()),
              nc::util::system_topology().cpus.size(), nc::util::system_topology().n_nodes,
              nc::util::num_threads());
  std::printf("run: workload %s, seed %llu, %.3g s, trace %d\n", cfg.workload.c_str(),
              static_cast<unsigned long long>(cfg.seed), cfg.seconds, cfg.trace ? 1 : 0);
  std::fflush(stdout);
  try {
    const perfbench::Result result = perfbench::run_workload(cfg);
    print_result(result);
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
