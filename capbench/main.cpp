// capbench_harness — the compiled half of the capart benchmark; run.py in
// this directory drives it. Subcommands (arguments are `--key value` pairs):
//
//   meta                       host and build metadata as JSON
//   sim  --workload W --seed N --seconds S --trace 0|1 --workdir DIR
//                              a simulator workload's measured run
//   digests --workload W --seed N --workdir DIR
//                              one pass of a workload's arms; their digests
//   load --workload W --seed N [--seconds S] --port P --pid PID
//                              the open-loop client against capart_serve
//
// Each prints one JSON object on stdout. A non-Release build refuses to run.
#include <fstream>
#include <iostream>
#include <string_view>
#include <thread>

#include "harness.hpp"
#include "src/mem/simd.hpp"

namespace {

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

int meta() {
  capart::obs::JsonWriter w;
  w.begin_object()
      .key("cpu_model").value(cpu_model())
      .key("nproc").value(std::thread::hardware_concurrency())
      .key("simd_backend").value(capart::mem::simd::backend_name())
      .key("compiler").value(CAPBENCH_CXX_COMPILER)
      .key("build_type").value(CAPBENCH_BUILD_TYPE)
      .end_object();
  std::cout << w.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (std::string_view(CAPBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "capbench_harness: built as '" CAPBENCH_BUILD_TYPE
                 "'; timings need a Release build\n";
    return 2;
  }
  if (argc < 2) {
    std::cerr << "usage: capbench_harness meta|sim|digests|load "
                 "[--key value ...]\n";
    return 2;
  }
  const std::string_view command = argv[1];
  try {
    const auto args = capbench::parse_args(argc, argv, 2);
    if (command == "meta") return meta();
    if (command == "sim") return capbench::run_sim_command(args);
    if (command == "load") return capbench::run_load_command(args);
    if (command == "digests") return capbench::run_digests_command(args);
    std::cerr << "capbench_harness: unknown command '" << command << "'\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "capbench_harness " << command << ": " << e.what() << "\n";
    return 1;
  }
}
