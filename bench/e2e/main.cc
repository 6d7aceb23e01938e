// reach_e2e: drives the embedded REACH library in-process through one
// workload and prints one JSON result line on stdout. run.py builds it,
// runs it and prints the metrics; see README.md.
//
//   reach_e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//             [--smoke] --work-dir DIR --out-dir DIR
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "core/reach/reach_db.h"
#include "workloads.h"

extern char** environ;

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "reach_e2e: %s\nusage: reach_e2e --workload "
               "{powerplant,sensor_burst,plant_report,mixed} [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke] --work-dir DIR "
               "--out-dir DIR\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--smoke") {
      opt.smoke = true;
    } else if ((v = value()) == nullptr) {
      return Usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      opt.workload = v;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--work-dir") {
      opt.work_dir = v;
    } else if (arg == "--out-dir") {
      opt.out_dir = v;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (opt.work_dir.empty() || opt.out_dir.empty()) {
    return Usage("--work-dir and --out-dir are required");
  }
  // End-to-end numbers are taken with every REACH_* knob at its default.
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "REACH_", 6) == 0) {
      return Usage((std::string("unset ") + *e).c_str());
    }
  }

  e2e::RunResult result;
  result.workload = opt.workload;
  result.seed = opt.seed;
  result.traced = opt.trace;
  reach::StorageOptions storage;
  result.config = {
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"build_type", E2E_BUILD_TYPE},
      {"compiler", __VERSION__},
      {"group_commit", storage.wal.group_commit ? "on" : "off"},
      {"fsync", "per commit"},
      {"disk_backend", "posix"},
      {"writeback", "off"},
      {"buffer_pool_pages", std::to_string(storage.buffer_pool_pages)},
  };

  int rc;
  if (opt.workload == "powerplant") {
    rc = e2e::RunPowerplant(opt, &result);
  } else if (opt.workload == "sensor_burst") {
    rc = e2e::RunSensorBurst(opt, &result);
  } else if (opt.workload == "plant_report") {
    rc = e2e::RunPlantReport(opt, &result);
  } else if (opt.workload == "mixed") {
    rc = e2e::RunMixed(opt, &result);
  } else {
    return Usage(("unknown workload '" + opt.workload + "'").c_str());
  }
  std::printf("%s\n", result.Json().c_str());
  std::fflush(stdout);
  if (rc == 0 && !result.correct()) rc = 1;
  return rc;
}
