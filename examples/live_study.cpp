// Live study with a status endpoint attached: runs the full pipeline while
// core/status_service.h serves introspection snapshots over a unix socket
// and/or TCP localhost. Watch it from another terminal:
//
//   $ ./build/examples/live_study --unix /tmp/ofh.sock --scale 2048 &
//   $ ./build/tools/ofh-top/ofh-top --unix /tmp/ofh.sock
//
// Flags:
//   --unix PATH       serve on a unix-domain socket
//   --tcp             serve on TCP 127.0.0.1 (ephemeral port, printed)
//   --port N          fixed TCP port (implies --tcp)
//   --scale N         population scale denominator (default 2048)
//   --attack-scale N  attack volume denominator (default 32)
//   --days N          attack-month duration in sim days (default 2)
//   --threads N       scan worker threads (default 2)
//   --serve           allow the remote stop request and keep serving after
//                     the study finishes until one arrives (for drivers
//                     like scripts/check_status_proto.py --stop)
//
// Stdout emits `status: ...` lines before the run starts so scripts can
// discover the endpoint, then the summary report when the study completes.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <type_traits>

#include "core/status_service.h"
#include "core/study.h"
#include "util/strings.h"

using namespace ofh;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: live_study [--unix PATH] [--tcp] [--port N] "
               "[--scale N] [--attack-scale N] [--days N] "
               "[--threads N] [--serve]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string unix_path;
  bool tcp = false;
  std::uint16_t port = 0;
  double scale_denom = 2048;
  double attack_denom = 32;
  unsigned days = 2;
  unsigned threads = 2;
  bool serve = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    // Strict numeric operand: a malformed value is a usage error.
    const auto number = [&](auto& out) {
      const auto parsed =
          util::parse_number<std::remove_reference_t<decltype(out)>>(
              value());
      if (parsed) out = *parsed;
      return parsed.has_value();
    };
    bool ok = true;
    if (arg == "--unix") {
      unix_path = value();
    } else if (arg == "--tcp") {
      tcp = true;
    } else if (arg == "--port") {
      ok = number(port);
      tcp = true;
    } else if (arg == "--scale") {
      ok = number(scale_denom) && scale_denom > 0;
    } else if (arg == "--attack-scale") {
      ok = number(attack_denom) && attack_denom > 0;
    } else if (arg == "--days") {
      ok = number(days) && days > 0;
    } else if (arg == "--threads") {
      ok = number(threads);
    } else if (arg == "--serve") {
      serve = true;
    } else {
      ok = false;
    }
    if (!ok) return usage();
  }
  if (unix_path.empty() && !tcp) {
    std::fprintf(stderr, "live_study: need --unix and/or --tcp/--port\n");
    return 1;
  }

  core::StudyConfig config;
  config.population_scale = 1.0 / scale_denom;
  config.attack_scale = 1.0 / attack_denom;
  config.attack_duration = sim::days(days);
  config.scan_threads = threads;
  core::Study study(config);

  core::StatusService::Options options;
  options.unix_path = unix_path;
  options.tcp = tcp;
  options.tcp_port = port;
  options.allow_stop = serve;
  core::StatusService service(study.introspection(), options);
  if (!service.start()) {
    std::fprintf(stderr, "live_study: %s\n", service.error().c_str());
    return 1;
  }
  if (!unix_path.empty()) {
    std::printf("status: unix=%s\n", unix_path.c_str());
  }
  if (tcp) {
    std::printf("status: tcp_port=%u\n", unsigned{service.tcp_port()});
  }
  std::fflush(stdout);

  study.run_all();

  std::printf("study complete: %zu findings, %zu attack events\n",
              study.findings().size(), study.attack_log().size());
  std::fflush(stdout);

  if (serve) {
    // Keep answering status queries until a remote stop request arrives.
    while (!service.stop_requested()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::printf("stop requested, shutting down\n");
  }
  service.stop();
  return 0;
}
