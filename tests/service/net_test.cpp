// Contracts of the transports (ProtocolSession, driven by TcpServer's
// epoll loop and by serve_stream over file descriptors): a pipelined
// multi-request connection produces the serial transcript byte for byte;
// a client that disconnects mid-request neither kills a worker nor
// wedges the server; idle connections are reaped; `quit` and EOF close
// cleanly.  The ProtocolSession unit tests drive the session the way the
// epoll loop does (nonblocking submission, parking, pump-on-progress);
// the serve_stream tests drive it over pipe()s, as asipfb_serve does over
// stdin/stdout.  This suite runs under the CI TSan leg.
#include "service/net.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <poll.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/protocol.hpp"
#include "service/router.hpp"
#include "service/server.hpp"
#include "service/service.hpp"

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

namespace asipfb::service {
namespace {

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0)
      << strerror(errno);
  timeval tv{};
  tv.tv_sec = 30;  // Bound every read so a broken server fails, not hangs.
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  return fd;
}

void send_all(int fd, const std::string& bytes) {
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + pos, bytes.size() - pos, MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << strerror(errno);
    pos += static_cast<std::size_t>(n);
  }
}

std::string read_until_close(int fd) {
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

Request make_request(std::uint64_t id, Kind kind, std::string workload) {
  Request r;
  r.id = id;
  r.kind = kind;
  r.workload = std::move(workload);
  r.level = opt::OptLevel::O1;
  return r;
}

ServerOptions four_workers() {
  ServerOptions options;
  options.workers = 4;
  return options;
}

/// Drives a session the way the epoll loop does — pump, take the ready
/// output, sleep 1 ms — until wants_close(), and returns everything it
/// wrote.  Fails the test if the session is still open at `deadline`.
std::string drive_to_close(ProtocolSession& session,
                           std::chrono::steady_clock::time_point deadline) {
  std::string out;
  while (!session.wants_close()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      ADD_FAILURE() << "session never closed; output so far: " << out;
      return out;
    }
    while (session.pump()) {
    }
    out += session.take_ready();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return out + session.take_ready();
}

std::chrono::steady_clock::time_point in_30s() {
  return std::chrono::steady_clock::now() + std::chrono::seconds(30);
}

// --- Byte identity -----------------------------------------------------------

/// The transcript semantics, computed serially: responses in
/// submission order, `source` acked after its block, parse errors as
/// rendered error lines, `stats` reflecting all earlier requests, `ping`
/// reporting total workers.
std::string expected_transcript() {
  pipeline::SessionPool pool;
  std::string out;
  out += "{\"pong\": true, \"workers\": 4}\n";
  out += render_response(evaluate(make_request(1, Kind::kDetection, "fir"),
                                  pool)) + "\n";
  out += render_response(evaluate(make_request(2, Kind::kCoverage, "fir"),
                                  pool)) + "\n";
  out += render_response(evaluate(make_request(3, Kind::kDetection, "edge"),
                                  pool)) + "\n";
  try {
    (void)parse_command("bogus line");
  } catch (const std::exception& ex) {
    out += render_error(ex.what()) + "\n";
  }
  out += "{\"source\": \"tiny\", \"lines\": 1}\n";
  Request inline_req = make_request(4, Kind::kCompile, "tiny");
  inline_req.source = "int main() { return 41 + 1; }\n";
  out += render_response(evaluate(inline_req, pool)) + "\n";

  Stats stats;
  stats.submitted = 4;
  stats.completed = 4;
  stats.failed = 0;
  stats.completed_by_kind[static_cast<std::size_t>(Kind::kDetection)] = 2;
  stats.completed_by_kind[static_cast<std::size_t>(Kind::kCoverage)] = 1;
  stats.completed_by_kind[static_cast<std::size_t>(Kind::kCompile)] = 1;
  out += render_stats(stats) + "\n";
  return out;
}

constexpr char kScript[] =
    "ping\n"
    "1 detect fir level=O1\n"
    "2 coverage fir level=O1\n"
    "3 detect edge level=O1\n"
    "bogus line\n"
    "source tiny 1\n"
    "int main() { return 41 + 1; }\n"
    "4 compile tiny level=O1\n"
    "stats\n"
    "quit\n";

TEST(ServiceNet, PipelinedConnectionIsByteIdenticalToStdio) {
  const std::string expected = expected_transcript();
  Server server(four_workers());
  TcpServer tcp(server, {});

  // The whole script is written before anything is read: responses must
  // come back in submission order purely from the slot ordering.
  const int fd = connect_to(tcp.port());
  send_all(fd, kScript);
  const std::string got = read_until_close(fd);
  ::close(fd);
  EXPECT_EQ(got, expected);
  tcp.stop();
}

TEST(ServiceNet, ChunkedFeedMatchesSingleWrite) {
  // Same script, sent one byte at a time: line reassembly must be
  // boundary-agnostic.
  const std::string expected = expected_transcript();
  Server server(four_workers());
  TcpServer tcp(server, {});
  const int fd = connect_to(tcp.port());
  const std::string script(kScript);
  for (const char c : script) send_all(fd, std::string(1, c));
  const std::string got = read_until_close(fd);
  ::close(fd);
  EXPECT_EQ(got, expected);
  tcp.stop();
}

TEST(ServiceNet, EofMidSourceBlockRendersErrorAndCloses) {
  Server server(four_workers());
  TcpServer tcp(server, {});
  const int fd = connect_to(tcp.port());
  send_all(fd, "source broken 5\nonly one line\n");
  ::shutdown(fd, SHUT_WR);  // EOF with the block unfinished.
  const std::string got = read_until_close(fd);
  ::close(fd);
  EXPECT_NE(got.find("EOF inside source block 'broken'"), std::string::npos)
      << got;
  tcp.stop();
}

// --- Disconnect isolation ----------------------------------------------------

TEST(ServiceNet, MidRequestDisconnectDoesNotKillWorkerOrWedgeServer) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> started{0};
  ServerOptions server_options = four_workers();
  server_options.on_start = [&](const Request&) {
    started.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };
  Server server(server_options);
  TcpServer tcp(server, {});

  // Submit, wait until a worker is INSIDE the request, then vanish.
  const int fd = connect_to(tcp.port());
  send_all(fd, "1 detect fir level=O1\n");
  while (started.load() == 0) std::this_thread::yield();
  ::close(fd);

  {
    const std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();

  // The orphaned request completes against the detached session state.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.stats().completed < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "orphaned request never completed";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // The same deployment keeps serving new connections correctly.
  const int fd2 = connect_to(tcp.port());
  send_all(fd2, "2 detect fir level=O1\nquit\n");
  const std::string got = read_until_close(fd2);
  ::close(fd2);
  EXPECT_NE(got.find("\"id\": 2"), std::string::npos) << got;
  EXPECT_NE(got.find("\"ok\": true"), std::string::npos) << got;

  tcp.stop();
  const TcpServer::Counters counters = tcp.counters();
  EXPECT_EQ(counters.accepted, 2u);
  EXPECT_EQ(counters.closed, 2u);
  EXPECT_EQ(counters.open, 0u);
}

// --- Idle timeout ------------------------------------------------------------

TEST(ServiceNet, IdleConnectionsAreReaped) {
  Server server(four_workers());
  TcpServer::Options options;
  options.idle_timeout_ms = 100;
  TcpServer tcp(server, options);
  const int fd = connect_to(tcp.port());
  // Send nothing: the server must close us.
  const std::string got = read_until_close(fd);
  ::close(fd);
  EXPECT_TRUE(got.empty());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (tcp.counters().idle_closed < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "idle connection was never reaped";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(tcp.counters().open, 0u);
  tcp.stop();
}

// --- Lifecycle ---------------------------------------------------------------

TEST(ServiceNet, StopDrainsInFlightResponses) {
  Server server(four_workers());
  TcpServer tcp(server, {});
  const int fd = connect_to(tcp.port());
  // No quit: the connection is parked open with a completed pipeline.
  send_all(fd, "1 detect fir level=O1\n");
  std::string first;
  char buf[4096];
  const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
  ASSERT_GT(n, 0);
  first.append(buf, static_cast<std::size_t>(n));
  EXPECT_NE(first.find("\"ok\": true"), std::string::npos);

  // stop() must EOF the connection and close it cleanly, not hang.
  std::thread stopper([&] { tcp.stop(); });
  const std::string rest = read_until_close(fd);
  ::close(fd);
  stopper.join();
  EXPECT_EQ(tcp.counters().open, 0u);
  tcp.stop();  // Idempotent.
}

TEST(ServiceNet, RefusesBeyondMaxConnections) {
  Server server(four_workers());
  TcpServer::Options options;
  options.max_connections = 1;
  TcpServer tcp(server, options);

  const int keeper = connect_to(tcp.port());
  send_all(keeper, "ping\n");
  char buf[256];
  ASSERT_GT(::recv(keeper, buf, sizeof buf, 0), 0);  // Surely accepted.

  // The second connection must be refused: accepted-then-closed, which
  // a client sees as EOF (possibly after connect succeeds via backlog).
  const int refused = connect_to(tcp.port());
  const std::string got = read_until_close(refused);
  ::close(refused);
  EXPECT_TRUE(got.empty());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (tcp.counters().refused < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "over-limit connection was not refused";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::close(keeper);
  tcp.stop();
}

TEST(ServiceNet, TcpServerRequiresLinux) {
#if !defined(__linux__)
  Server server(four_workers());
  EXPECT_THROW(TcpServer(server, {}), std::invalid_argument);
#else
  GTEST_SKIP() << "epoll is available on Linux";
#endif
}

// --- ProtocolSession unit coverage -------------------------------------------

TEST(ServiceNet, ProtocolSessionStatsBarrierWaitsForPipeline) {
  // Drive the session directly: a stats line queued behind requests must
  // not render until the requests complete, so its counters depend on the
  // script alone.
  Server server(four_workers());
  ProtocolSession session(server, {});
  session.feed("1 detect fir level=O1\n2 detect edge level=O1\nstats\nquit\n");
  session.finish_input();
  const std::string out = drive_to_close(session, in_30s());

  // Order: response 1, response 2, stats (submitted=2, completed=2).
  const auto p1 = out.find("\"id\": 1");
  const auto p2 = out.find("\"id\": 2");
  const auto ps = out.find("\"stats\": true");
  ASSERT_NE(p1, std::string::npos) << out;
  ASSERT_NE(p2, std::string::npos) << out;
  ASSERT_NE(ps, std::string::npos) << out;
  EXPECT_LT(p1, p2);
  EXPECT_LT(p2, ps);
  EXPECT_NE(out.find("\"submitted\": 2, \"completed\": 2"), std::string::npos)
      << out;
}

TEST(ServiceNet, ParkedRequestSurvivesRepeatedRefusal) {
  // Regression: the session parks a refused request and retries
  // on every pump().  A retry that moves the parked request into the
  // submission and gets refused again (sustained backpressure) must not
  // leave a moved-from request behind — the eventual successful submit has
  // to carry the original workload, not an empty husk.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> started{0};
  ServerOptions server_options;
  server_options.workers = 1;
  server_options.queue_capacity = 1;
  server_options.on_start = [&](const Request&) {
    started.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };
  Server server(server_options);

  ProtocolSession session(server, {});
  // Gate the single worker inside request 1 so the rest of the setup is
  // deterministic: request 2 then fills the queue (capacity 1) and request
  // 3 is refused and parked.
  session.feed("1 detect fir level=O1\n");
  while (session.pump()) {
  }
  while (started.load() == 0) std::this_thread::yield();
  session.feed(
      "2 detect fir level=O1\n"
      "3 detect fir level=O1\n"
      "quit\n");
  session.finish_input();
  while (session.pump()) {
  }
  EXPECT_EQ(session.pending(), 4u);  // 3 pending slots + the parked request.

  // The queue is still full: each pump() re-attempts the parked request
  // and is refused again.  Pre-fix, the first refusal already corrupted it.
  for (int i = 0; i < 3; ++i) session.pump();

  {
    const std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();

  const std::string out = drive_to_close(session, in_30s());

  // All three requests completed successfully, in submission order — the
  // parked request kept its workload across the refused retries.
  const auto p1 = out.find("\"id\": 1");
  const auto p2 = out.find("\"id\": 2");
  const auto p3 = out.find("\"id\": 3");
  ASSERT_NE(p1, std::string::npos) << out;
  ASSERT_NE(p2, std::string::npos) << out;
  ASSERT_NE(p3, std::string::npos) << out;
  EXPECT_LT(p1, p2);
  EXPECT_LT(p2, p3);
  std::size_t ok_count = 0;
  for (std::size_t pos = out.find("\"ok\": true"); pos != std::string::npos;
       pos = out.find("\"ok\": true", pos + 1)) {
    ++ok_count;
  }
  EXPECT_EQ(ok_count, 3u) << out;
}

TEST(ServiceNet, ProtocolSessionOverShutDownServerAnswersWithError) {
  // A refusal after shutdown is an error, not backpressure: the request
  // gets an error line instead of being parked forever, and the session
  // still closes once its input ends.
  Server server(four_workers());
  server.shutdown();
  ProtocolSession session(server, {});
  session.feed("1 compile fir\n");
  session.finish_input();
  const std::string out = drive_to_close(session, in_30s());
  EXPECT_EQ(out.rfind("{\"ok\": false, \"error\": ", 0), 0u) << out;
  EXPECT_NE(out.find("shut down"), std::string::npos) << out;
  EXPECT_EQ(session.pending(), 0u);
  EXPECT_TRUE(session.wants_close());
}

TEST(ServiceNet, PingReportsTheServersWorkerCount) {
  // `ping` answers the one Server's worker count; the benchmark's Router
  // shim of two one-worker shards is one Server running two workers.
  const auto pong = [](Server& server) {
    ProtocolSession session(server, {});
    session.feed("ping\nquit\n");
    session.finish_input();
    return drive_to_close(session, in_30s());
  };
  ServerOptions one;
  one.workers = 1;
  Server single(one);
  EXPECT_EQ(pong(single), "{\"pong\": true, \"workers\": 1}\n");
  Server four(four_workers());
  EXPECT_EQ(pong(four), "{\"pong\": true, \"workers\": 4}\n");
  RouterOptions shards;
  shards.shards = 2;
  shards.server.workers = 1;
  Router router(shards);
  EXPECT_EQ(pong(router), "{\"pong\": true, \"workers\": 2}\n");
}

TEST(ServiceNet, ProtocolSessionDeepSourceIsAnErrorAndServingContinues) {
  // 20,000 nested parentheses (~40 KB, far under the line cap) used to
  // overflow the parser's stack and take the whole process down.  Now the
  // request gets an error response and the session keeps serving.
  Server server(four_workers());
  ProtocolSession session(server, {});
  const std::string deep = "int main() { return " + std::string(20000, '(') + "1" +
                           std::string(20000, ')') + "; }";
  session.feed("source deep 1\n" + deep + "\n1 compile deep level=O1\nping\nquit\n");
  session.finish_input();
  const std::string out = drive_to_close(session, in_30s());
  const auto error = out.find("nesting too deep");
  const auto pong = out.find("\"pong\": true");
  ASSERT_NE(error, std::string::npos) << out;
  ASSERT_NE(pong, std::string::npos) << out;
  EXPECT_LT(error, pong);
}

TEST(ServiceNet, ProtocolSessionOversizedLinePoisonsConnection) {
  Server server(four_workers());
  const std::string oversized(kMaxLineBytes + 1, 'x');
  const std::string error =
      render_error("protocol line exceeds " + std::to_string(kMaxLineBytes) +
                   " bytes");
  ProtocolSession session(server, {});
  // No newline and no EOF: the cap alone must end the session.
  session.feed(oversized);
  EXPECT_EQ(drive_to_close(session, in_30s()), error + "\n");

  // A terminated line over the cap is refused the same way, and nothing
  // after it is served.
  ProtocolSession terminated(server, {});
  terminated.feed("ping\n" + oversized + "\nping\n");
  EXPECT_EQ(drive_to_close(terminated, in_30s()),
            "{\"pong\": true, \"workers\": 4}\n" + error + "\n");
}

// --- serve_stream over pipes -------------------------------------------------

/// serve_stream on a background thread between two pipes, as asipfb_serve
/// runs it on stdin/stdout.  When serve_stream returns, the thread closes
/// the output's write end (readers see EOF) and the input's read end (a
/// blocked writer gets EPIPE instead of hanging).
class StreamHarness {
 public:
  explicit StreamHarness(Server& server) {
    std::signal(SIGPIPE, SIG_IGN);  // Writes after serve_stream quit: EPIPE.
    EXPECT_EQ(::pipe(in_), 0);
    EXPECT_EQ(::pipe(out_), 0);
    serving_ = std::thread([this, &server] {
      const bool ok = serve_stream(server, in_[0], out_[1], {});
      ::close(out_[1]);
      ::close(in_[0]);
      returned_.set_value(ok);
    });
  }

  ~StreamHarness() {
    // The writer ends once its bytes are in the pipe or serve_stream has
    // closed the read end; only then is the write end closed under it.
    if (writer_.joinable()) writer_.join();
    close_input();
    serving_.join();
    ::close(out_[0]);
  }

  StreamHarness(const StreamHarness&) = delete;
  StreamHarness& operator=(const StreamHarness&) = delete;

  /// Writes `bytes` from a helper thread, so input larger than the pipe
  /// buffer cannot deadlock the test; stops at the first failed write.
  void write_async(std::string bytes) {
    writer_ = std::thread([fd = in_[1], bytes = std::move(bytes)] {
      std::size_t pos = 0;
      while (pos < bytes.size()) {
        const ssize_t n = ::write(fd, bytes.data() + pos, bytes.size() - pos);
        if (n <= 0) return;
        pos += static_cast<std::size_t>(n);
      }
    });
  }

  void write(const std::string& bytes) {
    write_async(bytes);
    writer_.join();
  }

  void close_input() {
    if (in_[1] >= 0) ::close(in_[1]);
    in_[1] = -1;
  }

  /// The next output line (with its '\n'); empty if none arrives in 30 s.
  std::string read_line() {
    std::string line;
    char c = 0;
    while (line.empty() || line.back() != '\n') {
      pollfd p{out_[0], POLLIN, 0};
      if (::poll(&p, 1, 30000) != 1 || ::read(out_[0], &c, 1) != 1) break;
      line += c;
    }
    return line;
  }

  /// Everything written until serve_stream closes its output; fails the
  /// test if that takes longer than 30 s.
  std::string read_to_eof() {
    std::string out;
    char buf[4096];
    for (;;) {
      pollfd p{out_[0], POLLIN, 0};
      if (::poll(&p, 1, 30000) != 1) {
        ADD_FAILURE() << "serve_stream never closed its output; got: " << out;
        return out;
      }
      const ssize_t n = ::read(out_[0], buf, sizeof buf);
      if (n <= 0) return out;
      out.append(buf, static_cast<std::size_t>(n));
    }
  }

  /// serve_stream's result, once it has returned.
  std::future<bool>& returned() { return result_; }

 private:
  int in_[2] = {-1, -1};
  int out_[2] = {-1, -1};
  std::promise<bool> returned_;
  std::future<bool> result_ = returned_.get_future();
  std::thread serving_;
  std::thread writer_;
};

TEST(ServiceNet, StreamWritesResponseBeforeNextInputLine) {
  Server server(four_workers());
  StreamHarness stream(server);
  stream.write("1 compile fir level=O1\n");
  // No further input: the response must arrive on a completion alone.
  const std::string line = stream.read_line();
  EXPECT_EQ(line.rfind("{\"id\": 1, \"kind\": \"compile\"", 0), 0u) << line;
  EXPECT_NE(line.find("\"ok\": true"), std::string::npos) << line;
  stream.write("quit\n");
  EXPECT_EQ(stream.read_to_eof(), "");
  EXPECT_TRUE(stream.returned().get());
}

TEST(ServiceNet, StreamEofInsideSourceBlockRendersError) {
  Server server(four_workers());
  StreamHarness stream(server);
  stream.write("ping\nsource broken 5\nonly one line\n");
  stream.close_input();
  EXPECT_EQ(stream.read_to_eof(),
            "{\"pong\": true, \"workers\": 4}\n" +
                render_error("EOF inside source block 'broken'") + "\n");
  EXPECT_TRUE(stream.returned().get());
}

TEST(ServiceNet, StreamReturnsAfterQuitWhileInputStaysOpen) {
  Server server(four_workers());
  StreamHarness stream(server);
  // Input after quit is discarded, and the input pipe is never closed.
  stream.write("ping\nquit\n1 compile fir level=O1\n");
  EXPECT_EQ(stream.read_to_eof(), "{\"pong\": true, \"workers\": 4}\n");
  ASSERT_EQ(stream.returned().wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_TRUE(stream.returned().get());
}

TEST(ServiceNet, StreamServesFinalLineWithoutNewline) {
  Server server(four_workers());
  StreamHarness stream(server);
  stream.write("ping\n1 compile fir level=O1");
  stream.close_input();
  pipeline::SessionPool pool;
  EXPECT_EQ(stream.read_to_eof(),
            "{\"pong\": true, \"workers\": 4}\n" +
                render_response(
                    evaluate(make_request(1, Kind::kCompile, "fir"), pool)) +
                "\n");
  EXPECT_TRUE(stream.returned().get());
}

TEST(ServiceNet, StreamLineOverCapIsAnErrorAndCloses) {
  Server server(four_workers());
  StreamHarness stream(server);
  // 2 MiB, over the default 1 MiB cap; the ping after it is never read.
  stream.write_async(std::string(2u << 20, 'x') + "\nping\n");
  EXPECT_EQ(stream.read_to_eof(),
            render_error("protocol line exceeds 1048576 bytes") + "\n");
  EXPECT_TRUE(stream.returned().get());
}

TEST(ServiceNet, StreamAtQueueOneKeepsOrderAndStableStats) {
  // One worker behind a one-slot queue: nearly every submission is
  // refused and parked, and parking must neither reorder responses nor
  // leak into the stats line.  Three fresh deployments must produce the
  // same bytes.
  std::string script;
  const char* const kinds[] = {"compile fir", "detect fir", "coverage fir",
                               "detect edge"};
  constexpr int kRequests = 400;
  for (int i = 1; i <= kRequests; ++i) {
    script += std::to_string(i) + " " + kinds[i % 4] + " level=O1\n";
  }
  script += "stats\nquit\n";

  std::vector<std::string> transcripts;
  for (int run = 0; run < 3; ++run) {
    ServerOptions options;
    options.workers = 1;
    options.queue_capacity = 1;
    Server server(options);
    StreamHarness stream(server);
    stream.write_async(script);
    transcripts.push_back(stream.read_to_eof());
    EXPECT_TRUE(stream.returned().get());
  }

  const std::string& out = transcripts.front();
  std::size_t pos = 0;
  for (int i = 1; i <= kRequests; ++i) {
    const std::string prefix = "{\"id\": " + std::to_string(i) + ",";
    ASSERT_EQ(out.compare(pos, prefix.size(), prefix), 0)
        << "response " << i << " out of order at byte " << pos;
    pos = out.find('\n', pos) + 1;
  }
  const std::string stats_line = out.substr(pos);
  EXPECT_EQ(stats_line.rfind("{\"stats\": true, \"submitted\": 400, "
                             "\"completed\": 400, \"failed\": 0, "
                             "\"rejected\": 0, ",
                             0),
            0u)
      << stats_line;
  EXPECT_EQ(transcripts[1], transcripts[0]);
  EXPECT_EQ(transcripts[2], transcripts[0]);
}

}  // namespace
}  // namespace asipfb::service
