// ofh-top: terminal client for the study status endpoint
// (core/status_service.h). Connects over the unix socket or TCP localhost,
// polls the binary protocol and renders a one-screen live view: board
// (phase / sim-day), per-sweep progress bars, throughput, memory and ETA
// from the wall sampler, event-kind totals, trace-shard stats and the tail
// of the progress-event stream.
//
//   ofh-top --unix PATH [options]        connect via unix-domain socket
//   ofh-top --port N [--host H] [...]    connect via TCP (default host
//                                        127.0.0.1; the server only binds
//                                        loopback)
// Options:
//   --once            poll once, print, exit (no screen clearing)
//   --raw             machine-readable key=value lines (CI greps ^phase=)
//   --interval-ms N   poll cadence for the live view (default 500)
//
// Exit status: 0 on a clean run (including the server going away mid-view,
// which is the normal end of a study), 1 on connect failure or a protocol
// error on the very first poll, 2 on a usage error (unknown flag or a
// malformed number).
#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/status_service.h"
#include "obs/introspect.h"
#include "util/bytes.h"
#include "util/strings.h"

namespace {

using ofh::core::kStatusErrorTag;
using ofh::core::kStatusResponseBit;
using ofh::core::StatusRequest;

struct Options {
  std::string unix_path;
  std::string host = "127.0.0.1";
  int port = 0;
  bool once = false;
  bool raw = false;
  int interval_ms = 500;
};

int connect_to(const Options& options) {
  if (!options.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options.unix_path.size() >= sizeof addr.sun_path) return -1;
    std::memcpy(addr.sun_path, options.unix_path.c_str(),
                options.unix_path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options.port));
  if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
    return -1;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool write_all(int fd, const std::uint8_t* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool read_all(int fd, std::uint8_t* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::read(fd, data, size);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

// Sends one framed request and reads back one framed response body.
std::optional<ofh::util::Bytes> roundtrip(
    int fd, std::span<const std::uint8_t> body) {
  const ofh::util::Bytes framed = ofh::core::frame_status_message(body);
  if (!write_all(fd, framed.data(), framed.size())) return std::nullopt;
  std::uint8_t header[4];
  if (!read_all(fd, header, sizeof header)) return std::nullopt;
  ofh::util::ByteReader reader(std::span<const std::uint8_t>(header, 4));
  const std::uint32_t length = *reader.u32();
  if (length > (16u << 20)) return std::nullopt;  // implausible response
  ofh::util::Bytes response(length);
  if (length > 0 && !read_all(fd, response.data(), length)) {
    return std::nullopt;
  }
  return response;
}

std::optional<ofh::util::Bytes> request(int fd, StatusRequest tag) {
  const std::uint8_t body[1] = {static_cast<std::uint8_t>(tag)};
  return roundtrip(fd, body);
}

struct SweepView {
  std::string name;
  std::uint64_t done = 0;
  std::uint64_t total = 0;
};

struct StatusView {
  std::uint64_t epoch = 0;
  std::uint8_t phase = 0;
  std::string phase_name;
  std::uint64_t sim_now = 0;
  std::uint64_t sim_day = 0;
  std::uint64_t sweep_done = 0;
  std::uint64_t sweep_total = 0;
  std::vector<SweepView> sweeps;
  std::uint64_t trace_recorded = 0;
  std::uint64_t trace_dropped = 0;
  std::uint64_t events_published = 0;
  std::vector<std::uint64_t> kind_counts;
  std::uint64_t rss_bytes = 0;
  std::uint64_t vm_hwm_bytes = 0;
  std::uint64_t hosts_per_sec_milli = 0;
  std::uint64_t packets_per_sec_milli = 0;
  std::uint64_t eta_ms = ~std::uint64_t{0};
  std::uint64_t wall_elapsed_ms = 0;
};

// Parses a status response body; reports protocol errors on stderr.
std::optional<StatusView> parse_status(const ofh::util::Bytes& body) {
  ofh::util::ByteReader reader(body);
  const auto tag = reader.u8();
  if (!tag) return std::nullopt;
  if (*tag == kStatusErrorTag) {
    const auto code = reader.u8();
    const auto message = reader.str16();
    std::fprintf(stderr, "ofh-top: server error %u: %s\n",
                 code ? unsigned{*code} : 0u,
                 message ? message->c_str() : "?");
    return std::nullopt;
  }
  if (*tag != (kStatusResponseBit |
               static_cast<std::uint8_t>(StatusRequest::kStatus))) {
    std::fprintf(stderr, "ofh-top: unexpected response tag 0x%02x\n", *tag);
    return std::nullopt;
  }
  StatusView view;
  const auto u64 = [&reader](std::uint64_t& out) {
    const auto v = reader.u64();
    if (v) out = *v;
    return v.has_value();
  };
  bool ok = u64(view.epoch);
  if (const auto v = reader.u8(); v) view.phase = *v; else ok = false;
  if (const auto v = reader.str8(); v) view.phase_name = *v; else ok = false;
  ok = ok && u64(view.sim_now) && u64(view.sim_day) &&
       u64(view.sweep_done) && u64(view.sweep_total);
  if (const auto count = reader.u8(); ok && count) {
    for (unsigned i = 0; i < *count && ok; ++i) {
      SweepView sweep;
      if (const auto name = reader.str8(); name) sweep.name = *name;
      else ok = false;
      ok = ok && u64(sweep.done) && u64(sweep.total);
      view.sweeps.push_back(std::move(sweep));
    }
  } else {
    ok = false;
  }
  ok = ok && u64(view.trace_recorded) && u64(view.trace_dropped) &&
       u64(view.events_published);
  if (const auto count = reader.u8(); ok && count) {
    for (unsigned i = 0; i < *count && ok; ++i) {
      std::uint64_t value = 0;
      ok = u64(value);
      view.kind_counts.push_back(value);
    }
  } else {
    ok = false;
  }
  ok = ok && u64(view.rss_bytes) && u64(view.vm_hwm_bytes) &&
       u64(view.hosts_per_sec_milli) && u64(view.packets_per_sec_milli) &&
       u64(view.eta_ms) && u64(view.wall_elapsed_ms);
  if (!ok || !reader.done()) {
    std::fprintf(stderr, "ofh-top: malformed status response\n");
    return std::nullopt;
  }
  return view;
}

std::string humanize(std::uint64_t value) {
  char buf[32];
  if (value >= 10'000'000) {
    std::snprintf(buf, sizeof buf, "%.1fM",
                  static_cast<double>(value) / 1e6);
  } else if (value >= 10'000) {
    std::snprintf(buf, sizeof buf, "%.1fk",
                  static_cast<double>(value) / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(value));
  }
  return buf;
}

std::string bar(std::uint64_t done, std::uint64_t total, int width) {
  const double fraction =
      total == 0 ? 0.0
                 : std::min(1.0, static_cast<double>(done) /
                                     static_cast<double>(total));
  const int fill = static_cast<int>(fraction * width + 0.5);
  std::string out = "[";
  for (int i = 0; i < width; ++i) out += i < fill ? '#' : '.';
  out += "]";
  char pct[16];
  std::snprintf(pct, sizeof pct, " %5.1f%%", fraction * 100.0);
  return out + pct;
}

void print_raw(const StatusView& view) {
  const auto u = [](std::uint64_t v) {
    return std::to_string(v);
  };
  std::printf("epoch=%s\n", u(view.epoch).c_str());
  std::printf("phase=%u\n", unsigned{view.phase});
  std::printf("phase_name=%s\n", view.phase_name.c_str());
  std::printf("sim_now=%s\n", u(view.sim_now).c_str());
  std::printf("sim_day=%s\n", u(view.sim_day).c_str());
  std::printf("sweep_done=%s\n", u(view.sweep_done).c_str());
  std::printf("sweep_total=%s\n", u(view.sweep_total).c_str());
  for (const auto& sweep : view.sweeps) {
    std::printf("sweep.%s=%s/%s\n", sweep.name.c_str(),
                u(sweep.done).c_str(), u(sweep.total).c_str());
  }
  std::printf("trace_recorded=%s\n", u(view.trace_recorded).c_str());
  std::printf("trace_dropped=%s\n", u(view.trace_dropped).c_str());
  std::printf("events_published=%s\n", u(view.events_published).c_str());
  for (std::size_t i = 0; i < view.kind_counts.size(); ++i) {
    std::printf("events.%s=%s\n",
                std::string(ofh::obs::progress_kind_name(
                                static_cast<ofh::obs::ProgressKind>(i)))
                    .c_str(),
                u(view.kind_counts[i]).c_str());
  }
  std::printf("rss_bytes=%s\n", u(view.rss_bytes).c_str());
  std::printf("vm_hwm_bytes=%s\n", u(view.vm_hwm_bytes).c_str());
  std::printf("hosts_per_sec_milli=%s\n",
              u(view.hosts_per_sec_milli).c_str());
  std::printf("packets_per_sec_milli=%s\n",
              u(view.packets_per_sec_milli).c_str());
  std::printf("eta_ms=%s\n", u(view.eta_ms).c_str());
  std::printf("wall_elapsed_ms=%s\n", u(view.wall_elapsed_ms).c_str());
}

void print_screen(const StatusView& view, bool clear) {
  if (clear) std::printf("\x1b[2J\x1b[H");
  std::printf("ofh-top — live study status  (wall %.1fs)\n",
              static_cast<double>(view.wall_elapsed_ms) / 1000.0);
  std::printf("phase  %u %-14s  sim-day %llu  epoch %llu\n",
              unsigned{view.phase},
              view.phase_name.empty() ? "(idle)" : view.phase_name.c_str(),
              static_cast<unsigned long long>(view.sim_day),
              static_cast<unsigned long long>(view.epoch));
  std::printf("memory rss %s  peak %s\n", humanize(view.rss_bytes).c_str(),
              humanize(view.vm_hwm_bytes).c_str());
  std::printf("rate   %.1f hosts/s  %.1f packets/s",
              static_cast<double>(view.hosts_per_sec_milli) / 1000.0,
              static_cast<double>(view.packets_per_sec_milli) / 1000.0);
  if (view.eta_ms != ~std::uint64_t{0}) {
    std::printf("  eta %.0fs", static_cast<double>(view.eta_ms) / 1000.0);
  }
  std::printf("\n\nsweeps %s/%s\n", humanize(view.sweep_done).c_str(),
              humanize(view.sweep_total).c_str());
  for (const auto& sweep : view.sweeps) {
    std::printf("  %-8s %s %s/%s\n", sweep.name.c_str(),
                bar(sweep.done, sweep.total, 30).c_str(),
                humanize(sweep.done).c_str(), humanize(sweep.total).c_str());
  }
  std::printf("\nevents %llu:",
              static_cast<unsigned long long>(view.events_published));
  for (std::size_t i = 0; i < view.kind_counts.size(); ++i) {
    std::printf(" %s=%llu",
                std::string(ofh::obs::progress_kind_name(
                                static_cast<ofh::obs::ProgressKind>(i)))
                    .c_str(),
                static_cast<unsigned long long>(view.kind_counts[i]));
  }
  std::printf("\ntrace  recorded=%s dropped=%s\n",
              humanize(view.trace_recorded).c_str(),
              humanize(view.trace_dropped).c_str());
  std::fflush(stdout);
}

void usage() {
  std::fprintf(stderr,
               "usage: ofh-top (--unix PATH | --port N [--host H]) "
               "[--once] [--raw] [--interval-ms N]\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    bool ok = true;
    if (arg == "--unix") {
      options.unix_path = value();
    } else if (arg == "--host") {
      options.host = value();
    } else if (arg == "--port") {
      const auto port = ofh::util::parse_number<std::uint16_t>(value());
      ok = port.has_value();
      options.port = port.value_or(0);
    } else if (arg == "--once") {
      options.once = true;
    } else if (arg == "--raw") {
      options.raw = true;
    } else if (arg == "--interval-ms") {
      const auto interval = ofh::util::parse_number<int>(value());
      ok = interval.has_value();
      options.interval_ms = std::max(50, interval.value_or(0));
    } else {
      ok = false;
    }
    if (!ok) {
      usage();
      return 2;
    }
  }
  if (options.unix_path.empty() && options.port == 0) {
    usage();
    return 2;
  }

  bool first = true;
  for (;;) {
    const int fd = connect_to(options);
    if (fd < 0) {
      if (first) {
        std::fprintf(stderr, "ofh-top: cannot connect\n");
        return 1;
      }
      std::printf("ofh-top: server gone, exiting\n");
      return 0;
    }
    const auto body = request(fd, StatusRequest::kStatus);
    ::close(fd);
    if (!body) {
      if (first) return 1;
      std::printf("ofh-top: server gone, exiting\n");
      return 0;
    }
    const auto view = parse_status(*body);
    if (!view) return first ? 1 : 0;
    if (options.raw) {
      print_raw(*view);
    } else {
      print_screen(*view, /*clear=*/!options.once);
    }
    if (options.once) return 0;
    first = false;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options.interval_ms));
  }
}
