// The XRefine benchmark program. One binary, three workloads:
//
//   xrefine_perfbench --workload engine_cold|serve_store|serve_hot
//                     --seed N --seconds S --trace 0|1
//                     [--fast] [--perturb-reference] [--work-dir DIR]
//
// Prints every metric of the run with its unit, then one JSON result line
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits non-zero when any answer check fails.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"

int main(int argc, char** argv) {
  using xrefine::perfbench::RunConfig;
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      config.workload = value();
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      config.trace = value() != "0";
    } else if (arg == "--work-dir") {
      config.work_dir = value();
    } else if (arg == "--fast") {
      config.fast = true;
    } else if (arg == "--perturb-reference") {
      config.perturb_reference = true;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (!(config.seconds > 0)) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  if (config.workload == "engine_cold") {
    return xrefine::perfbench::RunEngineCold(config);
  }
  if (config.workload == "serve_store") {
    return xrefine::perfbench::RunServeStore(config);
  }
  if (config.workload == "serve_hot") {
    return xrefine::perfbench::RunServeHot(config);
  }
  std::fprintf(stderr, "unknown workload '%s'\n", config.workload.c_str());
  return 2;
}
