// warm_serve: memoized requests through the TCP service.
//
// An in-process service::Router (2 shards x 1 worker) sits behind a
// service::TcpServer (one epoll thread) on loopback; this thread drives 4
// pipelined connections closed-loop, each keeping kDepth requests in
// flight, and pauses every kSegmentSeconds for a HostSpeed calibration.
// The request mix is every Kind (compile, optimize, detect,
// coverage, extension at O0/O1/O2, and sweep) over the 12 suite workloads
// and the seeded corpus.  Corpus programs travel as inline `source` blocks,
// so the service sees only the generated BenchC.  Set-up evaluates every
// request serially on its owning shard's pool — which pre-warms the pool
// and yields the reference response line — and the run compares every
// response line against it byte for byte.
//
// The traced run adds two outside-in views: the TCP phase again with the
// server's latency_us field (client time minus server time is the network
// and protocol share), and an in-process phase timing parse_command,
// evaluate, render_response and Router::call per request.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>

#include "frontend/compile.hpp"
#include "opt/cleanup.hpp"
#include "service/net.hpp"
#include "service/protocol.hpp"
#include "service/router.hpp"
#include "trace.hpp"
#include "workloads.hpp"
#include "workloads/generator.hpp"

namespace tripbench {

namespace {

using namespace asipfb;

constexpr std::size_t kConnections = 4;
constexpr std::size_t kDepth = 4;            ///< Requests in flight per connection.
/// compile, then optimize/detect/coverage/extension at O0/O1/O2, then sweep.
constexpr std::size_t kRequestsPerWorkload = 14;
constexpr int kDrainSeconds = 20;           ///< Give up on a stuck server.
/// Sending time of one drive() segment; a calibration follows each.
constexpr double kSegmentSeconds = 0.1;
constexpr const char* kLatencyField = ", \"latency_us\": ";

struct MixEntry {
  std::string line;      ///< Request line, with '\n'.
  std::string expected;  ///< Reference response line, without '\n'.
  service::Request request;  ///< As parsed, inline source filled in.
};

struct Pending {
  std::size_t entry = 0;
  Clock::time_point sent;
};

/// One client connection.  Owns its socket.
struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_pos = 0;
  std::string in;
  std::deque<Pending> pending;
  std::size_t cursor = 0;  ///< Next position in the shared request order.

  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
};

/// The source text a `source` block of `lines` lines delivers: every line
/// followed by '\n' (net.cpp).  Returns the canonical text and line count.
std::pair<std::string, int> source_block(const std::string& source) {
  std::string text;
  int lines = 0;
  std::size_t pos = 0;
  while (pos < source.size()) {
    const std::size_t nl = source.find('\n', pos);
    const std::size_t end = nl == std::string::npos ? source.size() : nl;
    text.append(source, pos, end - pos);
    text += '\n';
    ++lines;
    pos = end + 1;
  }
  return {text, lines};
}

struct ServeSetup {
  std::vector<wl::Workload> corpus;
  std::map<std::string, std::string> sources;  ///< Inline name -> canonical text.
  std::string source_blocks;  ///< Every `source` block, sent on each connection.
  std::vector<MixEntry> mix;
  std::vector<std::size_t> order;  ///< Seeded request order, cycled by clients.
  std::unique_ptr<service::Router> router;
  std::unique_ptr<service::TcpServer> tcp;
  std::vector<std::unique_ptr<Conn>> conns;

  ServeSetup() = default;
  ServeSetup(const ServeSetup&) = delete;
  ServeSetup& operator=(const ServeSetup&) = delete;
  ~ServeSetup() { close_transport(); }

  void close_transport() {
    conns.clear();
    if (tcp) tcp->stop();
    tcp.reset();
  }

  pipeline::SessionPool& pool_for(const std::string& workload) {
    return router->shard(router->shard_for(workload)).pool();
  }
};

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Blocking exchange used during set-up: sends `bytes`, reads `lines`
/// response lines, and returns them.
std::vector<std::string> exchange(int fd, const std::string& bytes, std::size_t lines) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) throw std::runtime_error("set-up send failed");
    sent += static_cast<std::size_t>(n);
  }
  std::vector<std::string> out;
  std::string in;
  char buf[1 << 16];
  while (out.size() < lines) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) throw std::runtime_error("set-up connection closed");
    in.append(buf, static_cast<std::size_t>(n));
    std::size_t pos = 0;
    for (std::size_t nl; (nl = in.find('\n', pos)) != std::string::npos; pos = nl + 1) {
      out.push_back(in.substr(pos, nl - pos));
    }
    in.erase(0, pos);
  }
  return out;
}

/// Starts a TcpServer and opens the client connections, each primed with
/// every inline source block.
void open_transport(ServeSetup& s, bool with_latency) {
  service::TcpServer::Options options;
  options.mode = service::TcpServer::Mode::kEpoll;
  options.with_latency = with_latency;
  s.tcp = std::make_unique<service::TcpServer>(*s.router, options);
  for (std::size_t c = 0; c < kConnections; ++c) {
    auto conn = std::make_unique<Conn>();
    conn->fd = connect_loopback(s.tcp->port());
    if (conn->fd < 0) throw std::runtime_error("cannot connect to the service");
    for (const std::string& ack : exchange(conn->fd, s.source_blocks, s.sources.size())) {
      if (ack.rfind("{\"source\": ", 0) != 0) throw std::runtime_error("bad source ack: " + ack);
    }
    ::fcntl(conn->fd, F_SETFL, ::fcntl(conn->fd, F_GETFL, 0) | O_NONBLOCK);
    conn->cursor = c * s.order.size() / kConnections;
    s.conns.push_back(std::move(conn));
  }
}

/// One closed-loop phase over the open connections.
struct Phase {
  EndToEnd e2e;  ///< Every response, rescaled; sliced by kSliceSeconds of segments.
  std::vector<double> net_overhead_us;  ///< Traced phases only.
  std::uint64_t sent = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t lost = 0;  ///< Outstanding on a connection that broke or hung.
};

/// Drives the connections closed-loop in segments: send for
/// kSegmentSeconds, stop sending, receive every outstanding response, then
/// run a HostSpeed calibration that rescales the segment's latencies and
/// its length (first send to last response).  Segments go on until their
/// raw lengths add up to `seconds` (or, with `max_requests`, until that
/// many were sent).  A slice ends with the first segment that brings its
/// rescaled length to kSliceSeconds.  With a tracer every response carries
/// latency_us: it is stripped before the byte comparison and recorded as
/// the server-side child span.
Phase drive(ServeSetup& s, double seconds, std::uint64_t max_requests, Tracer* tracer) {
  Phase phase;
  HostSpeed speed;
  speed.calibrate(HostSpeed::kWindow);
  const auto segment = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(std::min(kSegmentSeconds, seconds)));
  std::vector<double> segment_us;  ///< Raw latencies of the open segment.
  double measured = 0.0, slice_seconds = 0.0;
  auto segment_start = Clock::now();
  std::uint64_t op = 0;
  bool sending = true;
  std::vector<pollfd> fds(s.conns.size());
  char buf[1 << 16];
  for (;;) {
    const auto now = Clock::now();
    const bool sent_all = max_requests != 0 && phase.sent >= max_requests;
    if (sending && (now >= segment_start + segment || sent_all)) sending = false;
    std::size_t outstanding = 0, open = 0;
    for (std::size_t c = 0; c < s.conns.size(); ++c) {
      Conn& conn = *s.conns[c];
      fds[c].fd = -1;  // poll() skips negative descriptors.
      if (conn.fd < 0) continue;
      ++open;
      while (sending && conn.pending.size() < kDepth &&
             (max_requests == 0 || phase.sent < max_requests)) {
        const std::size_t entry = s.order[conn.cursor];
        conn.cursor = (conn.cursor + 1) % s.order.size();
        conn.out += s.mix[entry].line;
        conn.pending.push_back({entry, now});
        ++phase.sent;
      }
      if (conn.out_pos < conn.out.size()) {
        const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_pos,
                                 conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
        if (n > 0) conn.out_pos += static_cast<std::size_t>(n);
        if (conn.out_pos == conn.out.size()) {
          conn.out.clear();
          conn.out_pos = 0;
        }
      }
      outstanding += conn.pending.size();
      fds[c].fd = conn.fd;
      fds[c].events = static_cast<short>(POLLIN | (conn.out.empty() ? 0 : POLLOUT));
      fds[c].revents = 0;
    }
    if (!sending && outstanding == 0) {
      const double raw = std::chrono::duration<double>(now - segment_start).count();
      speed.calibrate();
      for (const double us : segment_us) phase.e2e.add(speed.scale(us));
      segment_us.clear();
      slice_seconds += speed.scale(raw);
      measured += raw;
      if (slice_seconds >= kSliceSeconds) {
        phase.e2e.close_slice(slice_seconds);
        slice_seconds = 0.0;
      }
      if (measured >= seconds || sent_all || open == 0) break;
      sending = true;
      segment_start = Clock::now();
      continue;
    }
    if (now > segment_start + segment + std::chrono::seconds(kDrainSeconds)) {
      phase.lost += outstanding;
      break;
    }
    if (::poll(fds.data(), fds.size(), 100) <= 0) continue;
    const auto recv_at = Clock::now();
    for (std::size_t c = 0; c < s.conns.size(); ++c) {
      Conn& conn = *s.conns[c];
      if (conn.fd < 0 || (fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
      if (n <= 0) {
        if (n < 0 && (errno == EAGAIN || errno == EINTR)) continue;
        phase.lost += conn.pending.size();
        conn.pending.clear();
        ::close(conn.fd);
        conn.fd = -1;
        continue;
      }
      conn.in.append(buf, static_cast<std::size_t>(n));
      std::size_t pos = 0;
      for (std::size_t nl; (nl = conn.in.find('\n', pos)) != std::string::npos; pos = nl + 1) {
        std::string_view line(conn.in.data() + pos, nl - pos);
        if (conn.pending.empty()) {
          ++phase.mismatched;  // A response nobody asked for.
          continue;
        }
        const Pending p = conn.pending.front();
        conn.pending.pop_front();
        double server_us = 0.0;
        if (tracer != nullptr) {
          const std::size_t at = line.rfind(kLatencyField);
          if (at != std::string_view::npos) {
            const std::string value(line.substr(at + std::strlen(kLatencyField)));
            server_us = std::strtod(value.c_str(), nullptr);
            line = line.substr(0, at);
          }
          if (!line.empty() && line.back() == '}') line.remove_suffix(1);
        }
        std::string_view expected = s.mix[p.entry].expected;
        if (tracer != nullptr) expected.remove_suffix(1);  // The '}' stripped above.
        if (line != expected) ++phase.mismatched;
        const double us = std::chrono::duration<double, std::micro>(recv_at - p.sent).count();
        segment_us.push_back(us);
        if (tracer != nullptr) {
          const std::int32_t root = tracer->add("net.request", op, -1, static_cast<std::int32_t>(c),
                                                p.sent, recv_at);
          const auto server_start =
              recv_at - std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::micro>(server_us));
          tracer->add("service.server", op, root, static_cast<std::int32_t>(c),
                      std::max(server_start, p.sent), recv_at);
          phase.net_overhead_us.push_back(std::max(0.0, us - server_us));
          ++op;
        }
      }
      conn.in.erase(0, pos);
    }
  }
  if (slice_seconds > 0.0) phase.e2e.close_slice(slice_seconds);
  return phase;
}

std::unique_ptr<ServeSetup> setup_serve(const Options& o, Report& report) {
  auto s = std::make_unique<ServeSetup>();
  s->corpus = wl::corpus(wl::CorpusSpec{o.seed, kCorpusCount, wl::all_families()});
  for (const wl::Workload& w : s->corpus) {
    ir::Module module = fe::compile_benchc(w.source, w.name);
    opt::canonicalize(module);
    const pipeline::ExecutionResult run = pipeline::execute(module, w.input, w.outputs);
    ++report.attempted;
    if (!wl::oracle_matches(w, run.exit_code, run.outputs)) {
      report.fail();
      report.text += format("oracle mismatch: %s\n", w.name.c_str());
    }
    const auto [text, lines] = source_block(w.source);
    s->source_blocks += format("source %s %d\n", w.name.c_str(), lines) + text;
    s->sources[w.name] = text;
  }

  std::vector<std::string> workloads;
  for (const wl::Workload& w : wl::suite()) workloads.push_back(w.name);
  for (const wl::Workload& w : s->corpus) workloads.push_back(w.name);
  std::uint64_t id = 0;
  for (const std::string& name : workloads) {
    auto next_id = [&] { return static_cast<unsigned long long>(++id); };
    std::vector<std::string> lines = {format("%llu compile %s", next_id(), name.c_str())};
    for (const char* kind : {"optimize", "detect", "coverage", "extension"}) {
      for (const char* level : {"O0", "O1", "O2"}) {
        lines.push_back(format("%llu %s %s level=%s", next_id(), kind, name.c_str(), level));
      }
    }
    lines.push_back(format("%llu sweep %s", next_id(), name.c_str()));
    if (lines.size() != kRequestsPerWorkload) throw std::logic_error("request mix drifted");
    for (std::string& line : lines) {
      MixEntry e;
      e.request = service::parse_command(line).request;
      const auto src = s->sources.find(name);
      if (src != s->sources.end()) e.request.source = src->second;
      e.line = std::move(line) + "\n";
      s->mix.push_back(std::move(e));
    }
  }

  service::RouterOptions router_options;
  router_options.shards = 2;
  router_options.server.workers = 1;
  s->router = std::make_unique<service::Router>(router_options);
  // Serial evaluation on the owning shard's pool: pre-warms it and gives
  // the reference line of every request.
  for (MixEntry& e : s->mix) {
    const service::Response r = service::evaluate(e.request, s->pool_for(e.request.workload));
    if (!r.ok()) throw std::runtime_error("request fails: " + e.line + r.error);
    e.expected = service::render_response(r);
  }
  s->order.resize(s->mix.size());
  for (std::size_t i = 0; i < s->order.size(); ++i) s->order[i] = i;
  std::mt19937_64 rng(o.seed);
  std::shuffle(s->order.begin(), s->order.end(), rng);

  open_transport(*s, false);
  // One pass of the mix over TCP warms the transport path.
  const Phase warmup = drive(*s, 60.0, s->mix.size(), nullptr);
  if (warmup.mismatched != 0 || warmup.lost != 0) {
    throw std::runtime_error("warm-up pass over TCP did not match the references");
  }
  return s;
}

double memo_hit_share(service::Router& router) {
  std::uint64_t hits = 0, runs = 0;
  for (std::size_t i = 0; i < router.shard_count(); ++i) {
    const auto st = router.shard(i).pool().stats().stages;
    hits += st.hits;
    runs += st.optimize_runs + st.detect_runs + st.coverage_runs + st.extension_runs;
  }
  return hits + runs > 0 ? static_cast<double>(hits) / static_cast<double>(hits + runs) : 0.0;
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

void account(const Phase& p, Report& report) {
  report.attempted += p.sent;
  report.fail(p.mismatched + p.lost);
}

}  // namespace

Report run_warm_serve(const Options& o) {
  Report report;
  std::unique_ptr<ServeSetup> setup;
  const double setup_s = scaled_setup_seconds(
      setup_reps(o), [&] { setup.reset(); }, [&] { setup = setup_serve(o, report); });
  ServeSetup& s = *setup;
  report.text += format(
      "warm_serve: seed %llu, %zu requests over %zu workloads, %zu connections x depth %zu, "
      "2 shards x 1 worker\n",
      static_cast<unsigned long long>(o.seed), s.mix.size(), s.mix.size() / kRequestsPerWorkload,
      kConnections, kDepth);

  const Phase untraced = drive(s, o.seconds, 0, nullptr);
  account(untraced, report);
  add_end_to_end(report, untraced.e2e, "request", setup_s);
  const service::TcpServer::Counters counters = s.tcp->counters();
  const service::Stats stats = s.router->stats();
  report.fail(counters.refused + counters.closed + stats.rejected);
  if (!o.trace) return report;

  // Traced TCP phase: a fresh TcpServer that appends latency_us.
  s.close_transport();
  open_transport(s, true);
  Tracer tracer;
  const Phase traced = drive(s, o.seconds, 0, &tracer);
  account(traced, report);
  const double traced_rate = traced.e2e.ops_per_s();
  const double untraced_rate = untraced.e2e.ops_per_s();
  const service::TcpServer::Counters traced_counters = s.tcp->counters();
  s.close_transport();

  // In-process phase: the service layer's public calls, one request at a time.
  const auto start = Clock::now();
  std::uint64_t op = traced.e2e.ops();
  std::size_t in_process = 0;
  for (std::size_t k = 0; seconds_since(start) < o.seconds / 2 || k < s.mix.size(); ++k) {
    const MixEntry& e = s.mix[s.order[k % s.order.size()]];
    tracer.set_op(op++);
    auto root = tracer.scope("service.request");
    service::Command command;
    {
      auto span = tracer.scope("service.parse");
      command = service::parse_command(e.line.substr(0, e.line.size() - 1));
      const auto src = s.sources.find(command.request.workload);
      if (src != s.sources.end()) command.request.source = src->second;
    }
    service::Response response;
    {
      auto span = tracer.scope("service.evaluate");
      response = service::evaluate(command.request, s.pool_for(command.request.workload));
    }
    std::string line;
    {
      auto span = tracer.scope("service.render");
      line = service::render_response(response);
    }
    service::Response called;
    {
      auto span = tracer.scope("service.call");
      called = s.router->call(command.request);
    }
    ++in_process;
    ++report.attempted;
    if (line != e.expected || service::render_response(called) != e.expected) report.fail();
  }
  const service::Stats traced_stats = s.router->stats();
  report.fail(traced_counters.refused + traced_stats.rejected - stats.rejected);

  double tcp_ms = 0.0, in_process_ms = 0.0;
  for (const Span& span : tracer.spans()) {
    if (span.parent >= 0) continue;
    (std::string_view(span.name) == "net.request" ? tcp_ms : in_process_ms) += span.ms();
  }
  report.text += format("traced: %.0f requests/s (untraced %.0f): tracing overhead %.1f%%\n",
                        traced_rate, untraced_rate,
                        100.0 * (untraced_rate - traced_rate) / untraced_rate);
  report.text += format("TCP phase, self time per span (us per request, %llu requests):\n",
                        static_cast<unsigned long long>(traced.e2e.ops()));
  report.text += layer_table(self_ms_by_name(tracer, "net.request"),
                             static_cast<double>(traced.e2e.ops()), tcp_ms, "us/request", 1000.0);
  report.text += format("in-process phase, self time per span (us per request, %zu requests):\n",
                        in_process);
  report.text += layer_table(self_ms_by_name(tracer, "service.request"),
                             static_cast<double>(in_process), in_process_ms, "us/request", 1000.0);
  if (!o.trace_file.empty()) {
    if (tracer.write_chrome_trace(o.trace_file)) {
      report.text += "trace written to " + o.trace_file.string() + "\n";
    } else {
      report.text += "could not write trace file " + o.trace_file.string() + "\n";
    }
  }

  const std::map<std::string, double> total = tracer.total_ms_by_name();
  auto per_request_us = [&](const char* span) {
    const auto it = total.find(span);
    return it == total.end() ? 0.0 : 1000.0 * it->second / static_cast<double>(in_process);
  };
  std::vector<Metric>& m = report.per_layer;
  m = per_layer_template();
  set_metric(m, "pipeline.memo_hit_share", memo_hit_share(*s.router));
  set_metric(m, "service.parse_us", per_request_us("service.parse"));
  set_metric(m, "service.evaluate_us", per_request_us("service.evaluate"));
  set_metric(m, "service.render_us", per_request_us("service.render"));
  set_metric(m, "service.queue_wait_us",
             std::max(0.0, per_request_us("service.call") - per_request_us("service.evaluate")));
  set_metric(m, "service.rejected", static_cast<double>(traced_stats.rejected));
  set_metric(m, "net.overhead_us", mean(traced.net_overhead_us));
  set_metric(m, "net.closed_conns", static_cast<double>(counters.closed + traced_counters.closed));
  return report;
}

}  // namespace tripbench
