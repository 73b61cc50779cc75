// perfbench: runs one workload of the repository benchmark and prints
// one JSON record as its last line of output: the contract fields
// (correct, attempted, failed), the metrics by name with their units,
// and the host fingerprint. Exits non-zero when an output check fails.
//
//   perfbench --workload serve_open --seed 1 --seconds 10 --trace 0
//             --nominal-qps 1100 --overload-qps 5000 --work-dir DIR

#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Usage(const std::string& what) {
  std::cerr << "perfbench: " << what
            << "\nusage: perfbench --workload serve_open|join_ooc"
               " --seed N --seconds S --trace 0|1 --nominal-qps Q"
               " --overload-qps Q --work-dir DIR\n";
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      config.seconds = std::stod(value);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--nominal-qps") {
      config.nominal_qps = std::stod(value);
    } else if (flag == "--overload-qps") {
      config.overload_qps = std::stod(value);
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (config.work_dir.empty() || config.seconds <= 0.0) {
    return Usage("--work-dir and a positive --seconds are required");
  }
  std::filesystem::create_directories(config.work_dir);

  const HostInfo host = ProbeHost();
  config.nproc = host.nproc;
  RunResult out;
  if (config.workload == "serve_open") {
    if (config.nominal_qps <= 0.0 || config.overload_qps <= 0.0) {
      return Usage("serve_open needs --nominal-qps and --overload-qps");
    }
    RunServeOpen(config, &out);
  } else if (config.workload == "join_ooc") {
    RunJoinOoc(config, &out);
  } else {
    return Usage("unknown workload '" + config.workload + "'");
  }

  std::map<std::string, std::string> metrics;
  for (const auto& [name, metric] : out.metrics) {
    metrics[name] = JsonObject(
        {{"value", JsonNumber(metric.value)}, {"unit", JsonString(metric.unit)}});
  }
  out.Note("host", JsonObject({{"cpu_model", JsonString(host.cpu_model)},
                               {"isa", JsonString(host.isa)},
                               {"nproc", std::to_string(host.nproc)},
                               {"build_type", JsonString(host.build_type)},
                               {"compiler", JsonString(host.compiler)},
                               {"git_sha", JsonString(host.git_sha)},
                               {"source_digest", JsonString(host.source_digest)}}));
  out.Note("workload", JsonString(config.workload));
  out.Note("seed", std::to_string(config.seed));
  out.Note("seconds", JsonNumber(config.seconds));
  out.Note("trace", config.trace ? "1" : "0");
  out.Note("failed_checks", std::to_string(out.failed_checks));
  out.Note("check_failures", JsonList(out.check_failures));
  out.Note("idle_layers", JsonList(out.idle_layers));
  const bool correct = out.failed_checks == 0;
  std::cout << JsonObject({{"correct", correct ? "true" : "false"},
                           {"attempted", std::to_string(out.attempted)},
                           {"failed", std::to_string(out.failed)},
                           {"metrics", JsonObject(metrics)},
                           {"record", JsonObject(out.record)}})
            << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
