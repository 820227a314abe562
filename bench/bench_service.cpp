// Closed-loop load generator for the evaluation service (service::Server):
// the serving-layer companion to bench_sim_throughput (execution engine).
//
// A fixed mix of distinct requests — every suite workload and a slice of
// the generated corpus across compile/optimize/detect/coverage/extension
// kinds — is driven through one Server:
//
//   * cold: one pass over the mix on a fresh pool, single client — the
//     first-request path (compile + profile + stage per workload),
//   * warm: closed-loop clients (each submits one request, waits, repeats)
//     at 1, 4, and hardware_concurrency threads against the now-warm
//     server — the steady-state memoized path, which Server::call answers
//     on the client's own thread.  Extra clients add what the shared
//     Server, pool and Session mutexes leave them (1.0-1.5x at 4 clients
//     on a 4-core container), reported, not gated.
//
// A third phase exercises the TCP front end end to end: a fresh Server
// behind a service::TcpServer, driven open-loop (offered
// rate, not closed-loop self-pacing) by a poll()-based client holding
// ~1000 concurrent pipelined connections.  Requests are scheduled on a
// fixed rate timeline across two phases (nominal, then overload), every
// response byte-compared against the serially-computed expected line, and
// client-side latency quantiles (p50/p99/p999) reported — under overload
// the open-loop queueing delay is visible where a closed-loop client
// would just slow its own offered rate.  A connection-churn point
// (connect / one request / close, serially) rounds out the socket-path
// cost picture.
//
// Emits BENCH_service.json (override the path with the positional
// argument): per-point requests/s plus flat warm_1/warm_4/warm_max and
// open_loop_* members for tools/check_perf.py.  Any failed or
// byte-mismatched response fails the binary.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "service/net.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "support/json.hpp"
#include "support/table.hpp"
#include "workloads/generator.hpp"
#include "workloads/suite.hpp"

namespace {

using namespace asipfb;
using Clock = std::chrono::steady_clock;

/// Distinct requests covering every non-sweep kind over the suite plus a
/// corpus slice — large enough that closed-loop clients don't hammer one
/// Session's cache mutex in lockstep.
std::vector<service::Request> request_mix() {
  std::vector<service::Request> mix;
  std::uint64_t id = 0;
  auto add = [&](const std::string& workload, service::Kind kind,
                 opt::OptLevel level) {
    service::Request r;
    r.id = ++id;
    r.kind = kind;
    r.workload = workload;
    r.level = level;
    mix.push_back(std::move(r));
  };
  for (const auto& w : wl::suite()) {
    add(w.name, service::Kind::kCompile, opt::OptLevel::O0);
    add(w.name, service::Kind::kOptimize, opt::OptLevel::O2);
    add(w.name, service::Kind::kDetection, opt::OptLevel::O1);
    add(w.name, service::Kind::kCoverage, opt::OptLevel::O1);
    add(w.name, service::Kind::kExtension, opt::OptLevel::O1);
  }
  const auto& corpus = wl::default_corpus();
  for (std::size_t i = 0; i < corpus.size() && i < 36; ++i) {
    add(corpus[i].name, service::Kind::kDetection, opt::OptLevel::O1);
  }
  return mix;
}

struct LoadPoint {
  int clients = 0;
  std::uint64_t requests = 0;
  double seconds = 0.0;
  [[nodiscard]] double requests_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(requests) / seconds : 0.0;
  }
};

/// One cold pass: every distinct request exactly once, single client.
LoadPoint cold_pass(service::Server& server,
                    const std::vector<service::Request>& mix,
                    std::size_t& failures) {
  LoadPoint point;
  point.clients = 1;
  const auto start = Clock::now();
  for (const auto& request : mix) {
    if (!server.call(request).ok()) ++failures;
    ++point.requests;
  }
  point.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return point;
}

/// Closed-loop: `clients` threads, each cycling through the mix (staggered
/// start offsets) for `seconds` of wall time, one request in flight per
/// client.
LoadPoint closed_loop(service::Server& server,
                      const std::vector<service::Request>& mix, int clients,
                      double seconds, std::size_t& failures) {
  LoadPoint point;
  point.clients = clients;
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::size_t> failed{0};
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::size_t next = (mix.size() * c) / std::max(1, clients);
      while (Clock::now() < deadline) {
        if (!server.call(mix[next]).ok()) failed.fetch_add(1);
        completed.fetch_add(1, std::memory_order_relaxed);
        next = (next + 1) % mix.size();
      }
    });
  }
  for (auto& t : threads) t.join();
  point.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  point.requests = completed.load();
  failures += failed.load();
  return point;
}

// --- Open-loop TCP load ------------------------------------------------------

struct OpenLoopPhase {
  double offered_rps = 0.0;
  double seconds = 0.0;
  std::uint64_t completed = 0;
  double achieved_rps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

struct OpenLoopResult {
  std::size_t connections = 0;
  unsigned workers = 0;
  std::uint64_t completed = 0;
  std::uint64_t mismatches = 0;
  bool drained = true;
  double seconds = 0.0;
  double offered_rps = 0.0;
  double achieved_rps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double max_us = 0.0;
  double churn_conns_per_sec = 0.0;
  std::vector<OpenLoopPhase> phases;
};

double quantile(std::vector<double>& sorted_inplace, double q) {
  if (sorted_inplace.empty()) return 0.0;
  std::sort(sorted_inplace.begin(), sorted_inplace.end());
  const std::size_t idx = std::min(
      sorted_inplace.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(sorted_inplace.size())));
  return sorted_inplace[idx];
}

/// Raise the fd soft limit toward the hard limit so ~2x connections
/// (client + server end) fit; returns the resulting soft limit.
std::size_t raise_nofile_limit() {
  rlimit rl{};
  if (getrlimit(RLIMIT_NOFILE, &rl) != 0) return 1024;
  if (rl.rlim_cur < rl.rlim_max) {
    rlimit want = rl;
    want.rlim_cur = std::min<rlim_t>(rl.rlim_max, 16384);
    if (setrlimit(RLIMIT_NOFILE, &want) == 0) rl = want;
  }
  return static_cast<std::size_t>(rl.rlim_cur);
}

int connect_nonblocking(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 &&
      errno != EINPROGRESS) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// One pipelined client connection: a fixed request line sent repeatedly,
/// every response byte-compared against the precomputed expected line.
struct OpenConn {
  int fd = -1;
  std::string request_line;   ///< Includes trailing '\n'.
  std::string expected_line;  ///< Ditto.
  std::string out;
  std::size_t out_pos = 0;
  std::string in;
  std::deque<Clock::time_point> sent_at;  ///< Open-loop schedule times.
};

/// Drives `connections` pipelined connections through a two-phase offered
/// rate schedule against a fresh `workers`-thread TCP server, then measures
/// connection churn.  Latency is measured from the request's *scheduled*
/// time, so overload shows up as queueing delay (the open-loop property).
OpenLoopResult open_loop_tcp(const std::vector<service::Request>& mix,
                             std::size_t want_connections, unsigned workers,
                             std::size_t& failures) {
  OpenLoopResult result;
  result.workers = workers;

  service::ServerOptions server_options;
  server_options.workers = workers;
  server_options.queue_capacity = 4096;
  service::Server server(server_options);

  service::TcpServer::Options tcp_options;
  tcp_options.max_connections = want_connections + 64;
  service::TcpServer tcp(server, tcp_options);

  // Warm every distinct request through the server (the pool the
  // open-loop traffic will hit) and capture the authoritative expected
  // response line for the byte-identity check.
  std::vector<std::string> expected;
  expected.reserve(mix.size());
  for (const auto& request : mix) {
    const service::Response response = server.call(request);
    if (!response.ok()) ++failures;
    expected.push_back(service::render_response(response, false) + "\n");
  }

  const std::size_t fd_budget = raise_nofile_limit();
  const std::size_t connections =
      std::min(want_connections, fd_budget > 256 ? (fd_budget - 256) / 2
                                                 : std::size_t{64});
  std::vector<OpenConn> conns(connections);
  for (std::size_t c = 0; c < connections; ++c) {
    conns[c].fd = connect_nonblocking(tcp.port());
    if (conns[c].fd < 0) {
      failures += 1;
      result.drained = false;
      break;
    }
    const std::size_t m = c % mix.size();
    service::Request request = mix[m];
    conns[c].request_line = std::to_string(request.id) + " " +
                            std::string(service::to_string(request.kind)) +
                            " " + request.workload + " level=" +
                            std::string(opt::to_string(request.level)) + "\n";
    conns[c].expected_line = expected[m];
  }
  result.connections = connections;

  // Two-phase offered-rate schedule: nominal, then overload.  Rates scale
  // with the machine so the second phase actually exceeds one core's
  // memoized-lookup throughput without drowning CI.
  struct Phase {
    double rps;
    double seconds;
  };
  const std::vector<Phase> schedule = {{400.0, 0.6}, {1600.0, 0.6}};

  std::vector<double> latencies_us;
  std::vector<pollfd> fds(connections);
  const auto start = Clock::now();
  std::uint64_t scheduled = 0;
  std::uint64_t next_conn = 0;
  std::size_t phase_index = 0;
  auto phase_start = start;
  auto next_send = start;
  std::size_t phase_first_latency = 0;
  auto finish_phase = [&](double actual_seconds) {
    OpenLoopPhase p;
    p.offered_rps = schedule[phase_index].rps;
    p.seconds = actual_seconds;
    p.completed = latencies_us.size() - phase_first_latency;
    p.achieved_rps =
        actual_seconds > 0.0
            ? static_cast<double>(p.completed) / actual_seconds
            : 0.0;
    std::vector<double> slice(latencies_us.begin() + phase_first_latency,
                              latencies_us.end());
    p.p50_us = quantile(slice, 0.50);
    p.p99_us = quantile(slice, 0.99);
    result.phases.push_back(p);
    phase_first_latency = latencies_us.size();
  };

  bool sending = !conns.empty() && conns.front().fd >= 0;
  const auto drain_deadline =
      start + std::chrono::seconds(30);  // Hard stop: never hang CI.
  for (;;) {
    const auto now = Clock::now();
    if (sending && phase_index < schedule.size()) {
      // Emit every request whose scheduled time has passed (round-robin
      // across connections; latency clock starts at the scheduled time).
      while (next_send <= now && phase_index < schedule.size()) {
        OpenConn& conn = conns[next_conn % connections];
        next_conn++;
        if (conn.fd >= 0) {
          conn.out += conn.request_line;
          conn.sent_at.push_back(next_send);
          ++scheduled;
        }
        next_send += std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(1.0 / schedule[phase_index].rps));
        if (next_send - phase_start >=
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(schedule[phase_index].seconds))) {
          finish_phase(
              std::chrono::duration<double>(next_send - phase_start).count());
          ++phase_index;
          phase_start = next_send;
        }
      }
      if (phase_index >= schedule.size()) sending = false;
    }

    std::uint64_t outstanding = 0;
    std::size_t nfds = 0;
    for (auto& conn : conns) {
      if (conn.fd < 0) continue;
      outstanding += conn.sent_at.size();
      fds[nfds].fd = conn.fd;
      fds[nfds].events = static_cast<short>(
          POLLIN | (conn.out_pos < conn.out.size() ? POLLOUT : 0));
      fds[nfds].revents = 0;
      ++nfds;
    }
    if (!sending && outstanding == 0) break;
    if (now >= drain_deadline) {
      result.drained = false;
      break;
    }

    int timeout_ms = 50;
    if (sending) {
      const auto until = std::chrono::duration_cast<std::chrono::milliseconds>(
          next_send - Clock::now());
      timeout_ms = std::max(0, std::min(50, static_cast<int>(until.count())));
    }
    const int ready = ::poll(fds.data(), nfds, timeout_ms);
    if (ready <= 0) continue;

    std::size_t fi = 0;
    char buf[1 << 16];
    for (auto& conn : conns) {
      if (conn.fd < 0) continue;
      const pollfd& pfd = fds[fi++];
      if (pfd.revents == 0) continue;
      if (pfd.revents & POLLOUT) {
        const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_pos,
                                 conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
        if (n > 0) {
          conn.out_pos += static_cast<std::size_t>(n);
          if (conn.out_pos == conn.out.size()) {
            conn.out.clear();
            conn.out_pos = 0;
          }
        }
      }
      if (pfd.revents & (POLLIN | POLLHUP | POLLERR)) {
        const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
        if (n <= 0) {
          if (n < 0 && (errno == EAGAIN || errno == EINTR)) continue;
          failures += conn.sent_at.size();  // Server dropped us mid-run.
          result.drained = false;
          ::close(conn.fd);
          conn.fd = -1;
          continue;
        }
        conn.in.append(buf, static_cast<std::size_t>(n));
        std::size_t pos = 0;
        for (;;) {
          const auto newline = conn.in.find('\n', pos);
          if (newline == std::string::npos) break;
          const std::size_t len = newline + 1 - pos;
          if (conn.in.compare(pos, len, conn.expected_line) != 0) {
            ++result.mismatches;
          }
          if (!conn.sent_at.empty()) {
            latencies_us.push_back(
                std::chrono::duration<double, std::micro>(
                    Clock::now() - conn.sent_at.front())
                    .count());
            conn.sent_at.pop_front();
          }
          pos = newline + 1;
        }
        conn.in.erase(0, pos);
      }
    }
  }
  if (phase_index < schedule.size() && latencies_us.size() > phase_first_latency) {
    finish_phase(std::chrono::duration<double>(Clock::now() - phase_start).count());
  }
  result.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  result.completed = latencies_us.size();
  result.achieved_rps =
      result.seconds > 0.0
          ? static_cast<double>(result.completed) / result.seconds
          : 0.0;
  double offered_total = 0.0, offered_seconds = 0.0;
  for (const auto& phase : schedule) {
    offered_total += phase.rps * phase.seconds;
    offered_seconds += phase.seconds;
  }
  result.offered_rps =
      offered_seconds > 0.0 ? offered_total / offered_seconds : 0.0;
  {
    std::vector<double> all = latencies_us;
    result.p50_us = quantile(all, 0.50);
    result.p99_us = quantile(all, 0.99);
    result.p999_us = quantile(all, 0.999);
    result.max_us = all.empty() ? 0.0 : all.back();
  }
  for (auto& conn : conns) {
    if (conn.fd >= 0) ::close(conn.fd);
  }

  // Connection churn: serial connect / ping / read / close loop — the
  // accept-to-first-byte socket path cost, isolated from pipelining.
  {
    const auto churn_start = Clock::now();
    const auto churn_deadline = churn_start + std::chrono::milliseconds(300);
    std::uint64_t churned = 0;
    while (Clock::now() < churn_deadline) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) break;
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(tcp.port());
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        ::close(fd);
        break;
      }
      const char ping[] = "ping\n";
      if (::send(fd, ping, sizeof ping - 1, MSG_NOSIGNAL) ==
          static_cast<ssize_t>(sizeof ping - 1)) {
        char reply[256];
        ssize_t got = 0;
        while (got < static_cast<ssize_t>(sizeof reply)) {
          const ssize_t n = ::recv(fd, reply + got, sizeof reply - got, 0);
          if (n <= 0) break;
          got += n;
          if (std::memchr(reply, '\n', static_cast<std::size_t>(got)) !=
              nullptr) {
            ++churned;
            break;
          }
        }
      }
      ::close(fd);
    }
    result.churn_conns_per_sec =
        static_cast<double>(churned) /
        std::chrono::duration<double>(Clock::now() - churn_start).count();
  }

  tcp.stop();
  server.shutdown();
  failures += result.mismatches;
  if (!result.drained) ++failures;
  return result;
}

std::string render_json(unsigned workers, std::size_t mix_size,
                        const LoadPoint& cold,
                        const std::vector<LoadPoint>& warm,
                        const OpenLoopResult& open_loop) {
  support::JsonWriter json;
  json.begin_object()
      .member("bench", "service")
      .member("workers", workers)
      .member("distinct_requests", static_cast<std::uint64_t>(mix_size))
      .key("cold")
      .inline_object()
      .member("clients", cold.clients)
      .member("requests", cold.requests)
      .member("seconds", cold.seconds)
      .member("requests_per_sec", cold.requests_per_sec())
      .end_object()
      .key("warm")
      .begin_array();
  for (const auto& p : warm) {
    json.inline_object()
        .member("clients", p.clients)
        .member("requests", p.requests)
        .member("seconds", p.seconds)
        .member("requests_per_sec", p.requests_per_sec())
        .end_object();
  }
  json.end_array();
  // Open-loop TCP point: offered-rate schedule over pipelined
  // connections against one TcpServer.
  json.key("open_loop").begin_object()
      .member("connections", static_cast<std::uint64_t>(open_loop.connections))
      .member("requests", open_loop.completed)
      .member("mismatches", open_loop.mismatches)
      .member("drained", open_loop.drained)
      .member("seconds", open_loop.seconds)
      .member("offered_rps", open_loop.offered_rps)
      .member("achieved_rps", open_loop.achieved_rps)
      .member("p50_us", open_loop.p50_us)
      .member("p99_us", open_loop.p99_us)
      .member("p999_us", open_loop.p999_us)
      .member("max_us", open_loop.max_us)
      .member("churn_conns_per_sec", open_loop.churn_conns_per_sec)
      .key("phases")
      .begin_array();
  for (const auto& p : open_loop.phases) {
    json.inline_object()
        .member("offered_rps", p.offered_rps)
        .member("seconds", p.seconds)
        .member("completed", p.completed)
        .member("achieved_rps", p.achieved_rps)
        .member("p50_us", p.p50_us)
        .member("p99_us", p.p99_us)
        .end_object();
  }
  json.end_array().end_object();
  // Flat members for the perf gate (tools/check_perf.py) and for scaling
  // at a glance; warm[0] is always the single-client point.
  const double warm_1 = warm.front().requests_per_sec();
  double warm_max = 0.0;
  for (const auto& p : warm) warm_max = std::max(warm_max, p.requests_per_sec());
  json.member("cold_requests_per_sec", cold.requests_per_sec())
      .member("warm_1_requests_per_sec", warm_1)
      .member("warm_max_requests_per_sec", warm_max)
      .member("multi_client_speedup", warm_1 > 0.0 ? warm_max / warm_1 : 0.0)
      .member("open_loop_achieved_rps", open_loop.achieved_rps)
      .member("open_loop_p99_us", open_loop.p99_us)
      .member("churn_conns_per_sec", open_loop.churn_conns_per_sec)
      .end_object();
  return json.str() + "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  if (!bench::parse_bench_args(argc, argv,
                               {"bench_service", "BENCH_service.json"},
                               &path)) {
    return 2;
  }

  const std::vector<service::Request> mix = request_mix();
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  service::Server server;  // Private pool: the cold pass means it.
  std::size_t failures = 0;

  const LoadPoint cold = cold_pass(server, mix, failures);

  std::vector<int> client_counts = {1, 4, static_cast<int>(hw)};
  std::sort(client_counts.begin(), client_counts.end());
  client_counts.erase(std::unique(client_counts.begin(), client_counts.end()),
                      client_counts.end());
  std::vector<LoadPoint> warm;
  for (int clients : client_counts) {
    warm.push_back(closed_loop(server, mix, clients, 0.4, failures));
  }

  // At least four workers, and a multiple of four up to the core count:
  // the worker total BENCH_service.json's open-loop bounds were set with.
  const OpenLoopResult open_loop =
      open_loop_tcp(mix, 1000, 4 * std::max(1u, hw / 4), failures);

  std::printf("=== Evaluation service: closed-loop load (%u workers, %zu distinct requests) ===\n",
              server.workers(), mix.size());
  TextTable table({"Phase", "Clients", "Requests", "Seconds", "Req/s"});
  auto add_row = [&](const char* phase, const LoadPoint& p) {
    char seconds[32], rps[32];
    std::snprintf(seconds, sizeof seconds, "%.3f", p.seconds);
    std::snprintf(rps, sizeof rps, "%.0f", p.requests_per_sec());
    table.add_row({phase, std::to_string(p.clients),
                   std::to_string(p.requests), seconds, rps});
  };
  add_row("cold", cold);
  for (const auto& p : warm) add_row("warm", p);
  std::printf("%s\n", table.render().c_str());

  std::printf(
      "=== Open-loop TCP (%zu connections, %u workers) ===\n"
      "  offered %.0f rps -> achieved %.0f rps over %.2fs (%llu responses, "
      "%llu mismatches)\n"
      "  latency p50 %.0fus  p99 %.0fus  p999 %.0fus  max %.0fus\n"
      "  churn %.0f conns/s\n\n",
      open_loop.connections, open_loop.workers, open_loop.offered_rps,
      open_loop.achieved_rps, open_loop.seconds,
      static_cast<unsigned long long>(open_loop.completed),
      static_cast<unsigned long long>(open_loop.mismatches), open_loop.p50_us,
      open_loop.p99_us, open_loop.p999_us, open_loop.max_us,
      open_loop.churn_conns_per_sec);

  const std::string json =
      render_json(server.workers(), mix.size(), cold, warm, open_loop);
  std::fputs(json.c_str(), stdout);
  if (!support::JsonWriter::write_file(path, json)) return 1;
  if (failures != 0) {
    std::fprintf(stderr, "bench_service: %zu failed responses\n", failures);
    return 1;
  }
  return 0;
}
