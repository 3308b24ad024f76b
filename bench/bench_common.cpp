#include "bench_common.hpp"

#include <cstdlib>

#include "core/config_file.hpp"

namespace dfly::bench {

namespace {
int g_default_jobs = 0;  ///< harness-wide --jobs value, 0 = unset
}  // namespace

void set_default_jobs(int jobs) { g_default_jobs = jobs > 0 ? jobs : 0; }

int default_jobs() {
  return resolve_jobs(g_default_jobs, hardware_jobs());
}

Options Options::parse(int argc, char** argv, int default_scale, Caps caps) {
  Options options;
  options.scale = default_scale;
  const auto reject_unsupported = [&](const char* flag, bool supported) {
    if (!supported) {
      std::fprintf(stderr, "this bench does not implement %s\n", flag);
      std::exit(2);
    }
  };
  // Integer flags go through int_flag: junk or an out-of-range value is a
  // usage error naming the flag, never a silent fallback to another scale.
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--scale=", 0) == 0) {
        options.scale = int_flag("--scale", arg.substr(8), 1);
      } else if (arg.rfind("--seed=", 0) == 0) {
        options.seed = int_flag<std::uint64_t>("--seed", arg.substr(7), 0);
      } else if (arg.rfind("--routing=", 0) == 0) {
        options.routing = arg.substr(10);
      } else if (arg.rfind("--jobs=", 0) == 0) {
        reject_unsupported("--jobs", caps.jobs);
        options.jobs = int_flag("--jobs", arg.substr(7), 0);  // 0 = DFSIM_JOBS, else all cores
      } else if (arg.rfind("--json=", 0) == 0) {
        reject_unsupported("--json", caps.json);
        options.json_path = arg.substr(7);
      } else if (arg == "--full") {
        options.scale = 1;
      } else if (arg == "--quick") {
        options.scale = 32;
      } else if (arg == "--smoke") {
        reject_unsupported("--smoke", caps.smoke);
        options.smoke = true;
        options.scale = 64;
      } else if (arg == "--help" || arg == "-h") {
        std::printf("options: --scale=N --seed=N --routing=NAME --full --quick%s%s%s\n",
                    caps.jobs ? " --jobs=N" : "", caps.json ? " --json=FILE" : "",
                    caps.smoke ? " --smoke" : "");
        std::exit(0);
      } else {
        std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
        std::exit(2);
      }
    }
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "%s\n", error.what());
    std::exit(2);
  }
  set_default_jobs(options.jobs);
  return options;
}

std::vector<std::string> Options::routings() const {
  if (!routing.empty()) return {routing};
  return routing::paper_routings();
}

StudyConfig Options::config(const std::string& routing_name) const {
  StudyConfig config;
  config.topo = DragonflyParams::paper();
  config.routing = routing_name;
  config.seed = seed;
  config.scale = scale;
  return config;
}

void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

void print_rule() {
  std::printf("----------------------------------------------------------------\n");
}

std::string fmt(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
  return buf;
}

}  // namespace dfly::bench
