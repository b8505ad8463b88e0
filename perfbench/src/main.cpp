// perfbench: runs one workload for a fixed wall-clock budget (see
// perfbench/README.md). perfbench/run.py builds and drives it.
//
//   perfbench --workload paper_system --seed 1 --seconds 10 --trace 0
//             [--trace-dir DIR]
//
// --trace 0 measures the end-to-end metrics, --trace 1 the per-layer
// ones. Either way every pass is checked: outputs repeat bit for bit and
// pass the workload's accounting invariants. Standard output carries
// plain lines that run.py turns into the JSON result:
//
//   fingerprint <hex>      digest of the first pass's outputs
//   machine <json>         CPU model, cores, compiler, build type
//   metric <name> <value>  one per measured metric
//   checks <attempted> <failed>
//
// A failed check is also named on standard error and makes the exit
// code 1.
#include <cstdio>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

using namespace perfbench;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload paper_system|fleet_failover_1k|"
               "service_churn_256 --seed N --seconds S --trace 0|1 "
               "[--trace-dir DIR]\n",
               argv0);
  return 2;
}

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return false;
        options.trace = value == "1";
      } else if (flag == "--smoke") {
        options.smoke = value == "1";
      } else if (flag == "--perturb") {
        options.perturb = value;
      } else if (flag == "--trace-dir") {
        options.trace_dir = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !options.workload.empty() && options.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse(argc, argv, options)) return usage(argv[0]);

  RunReport report;
  try {
    if (options.workload == "paper_system") {
      run_paper_system(options, report);
    } else if (options.workload == "fleet_failover_1k") {
      run_fleet_failover(options, report);
    } else if (options.workload == "service_churn_256") {
      run_service_churn(options, report);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
      return usage(argv[0]);
    }
  } catch (const std::exception& e) {
    report.fail(std::string("exception: ") + e.what());
  }

  for (const std::string& error : report.errors) {
    std::fprintf(stderr, "perfbench: FAILED CHECK: %s\n", error.c_str());
  }
  std::printf("fingerprint %s\n", report.fingerprint.c_str());
  std::printf("machine %s\n", machine_json().c_str());
  for (const auto& [name, value] : report.values) {
    std::printf("metric %s %.17g\n", name.c_str(), value);
  }
  std::printf("checks %llu %llu\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  return report.failed == 0 ? 0 : 1;
}
