// ofh-worker: a standalone scan-shard worker process. Connects to an
// ofh-coordinator's unix socket, announces itself, and executes JOB frames
// until SHUTDOWN or EOF (dist/worker.h). Run one per core:
//
//   for i in 1 2 3; do ofh-worker --connect /tmp/ofh.sock --name w$i & done
//
// Crash-safety is the coordinator's job: killing this process at any point
// (SIGKILL included) only costs the in-flight attempt.
#include <cstdio>
#include <string>

#include "dist/worker.h"
#include "util/strings.h"

namespace {

// Prints usage; a non-empty `bad` argument makes it an error (exit 2).
int usage(std::FILE* stream, const std::string& bad) {
  if (!bad.empty()) {
    std::fprintf(stream, "ofh-worker: bad argument '%s'\n", bad.c_str());
  }
  std::fprintf(stream,
               "usage: ofh-worker --connect PATH [--name NAME] "
               "[--connect-wait-ms MS]\n");
  return bad.empty() ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  ofh::dist::WorkerOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--connect" && i + 1 < argc) {
      options.connect_path = argv[++i];
    } else if (arg == "--name" && i + 1 < argc) {
      options.name = argv[++i];
    } else if (arg == "--connect-wait-ms" && i + 1 < argc) {
      const auto wait_ms = ofh::util::parse_number<int>(argv[++i]);
      if (!wait_ms || *wait_ms < 0) return usage(stderr, arg);
      options.connect_wait_ms = *wait_ms;
    } else if (arg == "--help" || arg == "-h") {
      return usage(stdout, {});
    } else {
      return usage(stderr, arg);
    }
  }
  if (options.connect_path.empty()) {
    std::fprintf(stderr, "ofh-worker: --connect PATH is required\n");
    return 2;
  }
  const int code = ofh::dist::run_worker(options);
  if (code == 2) {
    std::fprintf(stderr, "ofh-worker: could not connect to %s\n",
                 options.connect_path.c_str());
  }
  return code;
}
