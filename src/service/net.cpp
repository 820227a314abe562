#include "service/net.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "service/protocol.hpp"
#include "support/json.hpp"

namespace asipfb::service {

namespace {

std::string render_pong(unsigned workers) {
  support::JsonWriter json;
  json.inline_object()
      .member("pong", true)
      .member("workers", workers)
      .end_object();
  return json.str();
}

std::string render_source_ack(const std::string& name, int lines) {
  support::JsonWriter json;
  json.inline_object()
      .member("source", name)
      .member("lines", lines)
      .end_object();
  return json.str();
}

}  // namespace

// --- ProtocolSession --------------------------------------------------------

/// All session state lives behind one shared_ptr so worker
/// completion callbacks stay valid after the connection (and the
/// ProtocolSession wrapper) are gone: a mid-request disconnect detaches
/// the state, the worker finishes against it, and the last reference
/// frees it — no worker death, no leak, no dangling slot.
struct ProtocolSession::State {
  Server& server;
  Options opts;

  /// One output slot per command, in submission order.  `ready` slots at
  /// the front are the writable prefix.
  struct Slot {
    bool ready = false;
    std::string text;
  };

  /// Guards slots/unready; everything below it is touched only by the one
  /// transport thread driving feed()/pump()/take_ready().
  mutable std::mutex mu;
  std::deque<std::shared_ptr<Slot>> slots;
  std::size_t unready = 0;

  std::string input;
  std::size_t pos = 0;
  bool in_source = false;
  std::string source_name;
  int source_lines_total = 0;
  int source_remaining = 0;
  std::string source_text;
  std::map<std::string, std::string> sources;

  struct Parked {
    Request request;
    std::shared_ptr<Slot> slot;
  };
  std::optional<Parked> parked;
  bool stats_barrier = false;
  bool quit = false;
  bool input_done = false;

  State(Server& s, Options o) : server(s), opts(std::move(o)) {}

  void append_ready(std::string line) {
    auto slot = std::make_shared<Slot>();
    slot->ready = true;
    slot->text = std::move(line);
    slot->text += '\n';
    const std::lock_guard<std::mutex> lock(mu);
    slots.push_back(std::move(slot));
  }

  std::shared_ptr<Slot> append_pending() {
    auto slot = std::make_shared<Slot>();
    const std::lock_guard<std::mutex> lock(mu);
    slots.push_back(slot);
    ++unready;
    return slot;
  }

  [[nodiscard]] std::size_t unready_count() const {
    const std::lock_guard<std::mutex> lock(mu);
    return unready;
  }

  /// What the pipelining cap counts: every untaken slot while one is in
  /// flight, since ready ones behind it (inline answers among them) wait
  /// in memory too.  With nothing in flight every slot is ready, and the
  /// transport's next take_ready() drains them all.
  [[nodiscard]] std::size_t backlog() const {
    const std::lock_guard<std::mutex> lock(mu);
    return unready == 0 ? 0 : slots.size();
  }

  static std::function<void(Response)> completion(
      const std::shared_ptr<State>& state, const std::shared_ptr<Slot>& slot);
  static void fail_slot(const std::shared_ptr<State>& state,
                        const std::shared_ptr<Slot>& slot,
                        const std::string& message);
  static bool submit_request(const std::shared_ptr<State>& state,
                             Request request,
                             const std::shared_ptr<Slot>& slot);
  static void handle_line(const std::shared_ptr<State>& state,
                          std::string line);
};

/// The completion a worker runs: render into the slot, mark ready,
/// wake the transport.  Captures the shared state, never the connection.
std::function<void(Response)> ProtocolSession::State::completion(
    const std::shared_ptr<State>& state, const std::shared_ptr<Slot>& slot) {
  return [state, slot](Response response) {
    {
      const std::lock_guard<std::mutex> lock(state->mu);
      slot->text = render_response(response, state->opts.with_latency);
      slot->text += '\n';
      slot->ready = true;
      --state->unready;
    }
    if (state->opts.on_progress) state->opts.on_progress();
  };
}

/// Fills a slot directly (submission failed before reaching a worker).
void ProtocolSession::State::fail_slot(const std::shared_ptr<State>& state,
                                       const std::shared_ptr<Slot>& slot,
                                       const std::string& message) {
  {
    const std::lock_guard<std::mutex> lock(state->mu);
    slot->text = render_error(message);
    slot->text += '\n';
    slot->ready = true;
    --state->unready;
  }
}

/// Submits one parsed request.  Returns false when the server queue
/// refused it and the request must be parked.
bool ProtocolSession::State::submit_request(
    const std::shared_ptr<State>& state, Request request,
    const std::shared_ptr<Slot>& slot) {
  try {
    return state->server.try_submit_async(std::move(request),
                                          completion(state, slot));
  } catch (const std::exception& ex) {
    fail_slot(state, slot, ex.what());  // Shut down: it can never be queued.
    return true;
  }
}

void ProtocolSession::State::handle_line(const std::shared_ptr<State>& state,
                                         std::string line) {
  State& s = *state;
  if (s.in_source) {
    s.source_text += line;
    s.source_text += '\n';
    if (--s.source_remaining == 0) {
      s.sources[s.source_name] = std::move(s.source_text);
      s.source_text.clear();
      s.in_source = false;
      s.append_ready(render_source_ack(s.source_name, s.source_lines_total));
    }
    return;
  }

  Command command;
  try {
    command = parse_command(line);
  } catch (const std::exception& ex) {
    s.append_ready(render_error(ex.what()));
    return;
  }

  switch (command.type) {
    case Command::Type::kComment:
      break;
    case Command::Type::kSource:
      s.in_source = true;
      s.source_name = command.source_name;
      s.source_lines_total = command.source_lines;
      s.source_remaining = command.source_lines;
      s.source_text.clear();
      break;
    case Command::Type::kStats:
      // Pipeline barrier: render only once every earlier request on this
      // connection completed, so the counters depend on the script alone
      // and pipelined sessions stay byte-stable.
      if (s.unready_count() == 0) {
        s.append_ready(
            render_stats(s.server.stats(), s.opts.with_latency));
      } else {
        s.stats_barrier = true;
      }
      break;
    case Command::Type::kPing:
      s.append_ready(render_pong(s.server.workers()));
      break;
    case Command::Type::kQuit:
      s.quit = true;
      break;
    case Command::Type::kRequest: {
      const auto it = s.sources.find(command.request.workload);
      if (it != s.sources.end()) command.request.source = it->second;
      // A memo hit is answered here, on the transport thread, into a ready
      // slot: no completion callback, no wake-up.  take_ready() still holds
      // it behind any earlier slot in flight.
      if (std::optional<Response> answer =
              s.server.try_answer(command.request)) {
        s.append_ready(render_response(*answer, s.opts.with_latency));
        break;
      }
      auto slot = s.append_pending();
      if (!submit_request(state, command.request, slot)) {
        s.parked = Parked{std::move(command.request), std::move(slot)};
      }
      break;
    }
  }
}

ProtocolSession::ProtocolSession(Server& server, Options options)
    : state_(std::make_shared<State>(server, std::move(options))) {}

ProtocolSession::~ProtocolSession() = default;

void ProtocolSession::feed(std::string_view bytes) {
  State& s = *state_;
  if (s.quit) return;  // Input after quit is discarded.
  s.input.append(bytes.data(), bytes.size());
}

void ProtocolSession::finish_input() { state_->input_done = true; }

bool ProtocolSession::pump() {
  State& s = *state_;
  bool progress = false;
  for (;;) {
    if (s.parked) {
      // Retry with a copy: try_submit_async consumes its argument even when
      // the server queue refuses, so handing over the parked original would
      // leave a moved-from (empty) request for the next attempt.
      Request attempt = s.parked->request;
      if (!State::submit_request(state_, std::move(attempt), s.parked->slot)) {
        break;  // Queue still full; retry on the next completion.
      }
      s.parked.reset();
      progress = true;
      continue;
    }
    if (s.stats_barrier) {
      if (s.unready_count() != 0) break;
      s.stats_barrier = false;
      s.append_ready(render_stats(s.server.stats(), s.opts.with_latency));
      progress = true;
      continue;
    }
    if (s.quit) break;
    if (s.backlog() >= kMaxPipeline) break;

    // Next complete line, split on '\n'; a final unterminated line at EOF
    // still counts.  The cap applies before the newline has arrived, so an
    // endless line is refused without buffering it all.
    const auto newline = s.input.find('\n', s.pos);
    const std::size_t end =
        newline != std::string::npos ? newline : s.input.size();
    if (end - s.pos > kMaxLineBytes) {
      s.append_ready(render_error("protocol line exceeds " +
                                  std::to_string(kMaxLineBytes) +
                                  " bytes"));
      s.quit = true;
      progress = true;
      continue;
    }
    if (newline == std::string::npos) {
      if (!s.input_done) break;
      if (end == s.pos) {
        if (s.in_source) {
          s.append_ready(render_error("EOF inside source block '" +
                                      s.source_name + "'"));
          s.in_source = false;
        }
        s.quit = true;
        progress = true;
        continue;
      }
    }
    std::string line = s.input.substr(s.pos, end - s.pos);
    s.pos = newline != std::string::npos ? newline + 1 : end;
    State::handle_line(state_, std::move(line));
    progress = true;
    // Periodically reclaim the consumed prefix of the input buffer.
    if (s.pos > (std::size_t{1} << 16) && s.pos * 2 > s.input.size()) {
      s.input.erase(0, s.pos);
      s.pos = 0;
    }
  }
  return progress;
}

std::string ProtocolSession::take_ready() {
  State& s = *state_;
  std::string out;
  const std::lock_guard<std::mutex> lock(s.mu);
  while (!s.slots.empty() && s.slots.front()->ready) {
    out += s.slots.front()->text;
    s.slots.pop_front();
  }
  return out;
}

bool ProtocolSession::wants_close() const {
  const State& s = *state_;
  if (s.parked || s.stats_barrier) return false;
  const bool input_over =
      s.quit || (s.input_done && s.pos >= s.input.size() && !s.in_source);
  if (!input_over) return false;
  const std::lock_guard<std::mutex> lock(s.mu);
  return s.slots.empty();
}

bool ProtocolSession::input_paused() const {
  const State& s = *state_;
  return s.parked.has_value() || s.stats_barrier ||
         s.backlog() >= kMaxPipeline;
}

std::size_t ProtocolSession::pending() const {
  const State& s = *state_;
  return s.unready_count() + (s.parked ? 1 : 0);
}

std::size_t ProtocolSession::buffered_input() const {
  const State& s = *state_;
  return s.input.size() - s.pos;
}

// --- The event loop -----------------------------------------------------------

namespace {

using Clock = std::chrono::steady_clock;

/// Raw input a connection buffers before reading pauses: one line at the
/// cap plus one read.
constexpr std::size_t kReadCap = kMaxLineBytes + (std::size_t{1} << 16);

/// Unwritten output per socket before the peer is declared broken and
/// dropped (write backpressure bound); reading pauses at half this on
/// every connection.
constexpr std::size_t kWriteBufferLimit = std::size_t{8} << 20;

/// stop(): how long open connections may drain in-flight responses before
/// they are force-closed.
constexpr int kDrainGraceMs = 5000;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Completion wake-ups: a self-pipe the loop polls, plus the connections
/// whose completions landed since the loop last looked.  Every session's
/// on_progress holds a reference, so a completion that arrives after its
/// connection (or the whole loop) is gone still writes to this open pipe,
/// never to a closed and possibly reused fd.
class WakeHub {
 public:
  WakeHub() {
    if (::pipe(fds_) != 0) {
      throw std::system_error(errno, std::generic_category(), "pipe");
    }
    for (const int fd : fds_) {
      set_nonblocking(fd);
      ::fcntl(fd, F_SETFD, FD_CLOEXEC);
    }
  }
  ~WakeHub() {
    ::close(fds_[0]);
    ::close(fds_[1]);
  }
  WakeHub(const WakeHub&) = delete;
  WakeHub& operator=(const WakeHub&) = delete;

  [[nodiscard]] int read_fd() const { return fds_[0]; }

  /// Writes a byte only when none is pending since the last drain(), so a
  /// burst of completions costs the workers one write, not one each.
  void notify(std::uint64_t conn) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      touched_.push_back(conn);
    }
    if (!armed_.exchange(true)) wake();
  }

  /// A full pipe (EAGAIN) is already readable: nothing is lost.
  void wake() {
    const char byte = 0;
    [[maybe_unused]] const auto n = ::write(fds_[1], &byte, 1);
  }

  /// Empties the pipe, disarms, then swaps the touched connections into
  /// `touched` (whose buffer the hub reuses).  A notify that lands after
  /// the swap finds the hub disarmed, or armed by a notify whose byte was
  /// written after the read: either way a byte is in the pipe, the next
  /// poll() returns at once, and no wake-up is lost.  The pipe holds a few
  /// bytes at most, so one read empties it; a byte left over would only
  /// make the next poll() return early.
  void drain(std::vector<std::uint64_t>& touched) {
    char buf[256];
    [[maybe_unused]] const auto n = ::read(fds_[0], buf, sizeof buf);
    armed_.store(false);
    touched.clear();
    const std::lock_guard<std::mutex> lock(mu_);
    touched.swap(touched_);
  }

 private:
  int fds_[2] = {-1, -1};
  std::mutex mu_;
  std::vector<std::uint64_t> touched_;
  std::atomic<bool> armed_{false};  ///< A notify byte is in the pipe.
};

enum class CloseWhy { kNormal, kIdle, kOverflow, kError };

/// One ProtocolSession over an input and an output fd.  An accepted socket
/// is both, is written with send(MSG_NOSIGNAL), and is closed by the loop;
/// adopted stdio fds are written with write(2) and never closed.
struct Conn {
  std::uint64_t id = 0;
  int in_fd = -1;
  int out_fd = -1;
  bool socket = false;
  bool input_open = true;
  std::optional<CloseWhy> closing;  ///< Done; closed before the next poll().
  std::unique_ptr<ProtocolSession> session;
  std::string out;
  std::size_t out_pos = 0;
  Clock::time_point last_active;

  [[nodiscard]] std::size_t out_pending() const { return out.size() - out_pos; }
};

/// The one event loop of both transports: poll(2) over the wake pipe, an
/// optional listening socket, and each connection's fds.  TcpServer runs
/// it on its own thread with a listener; serve_stream runs it on the
/// caller's thread over one adopted connection.  run() returns once no
/// listener is left and every connection is closed.
struct Loop {
  Server& server;
  TcpServer::Options options;
  std::shared_ptr<WakeHub> hub = std::make_shared<WakeHub>();
  int listen_fd = -1;
  std::unordered_map<std::uint64_t, Conn> conns;
  std::vector<std::uint64_t> closing;
  std::uint64_t next_id = 0;
  bool write_failed = false;  ///< Writing a stdio connection's output failed.
  char buf[1 << 16] = {};

  std::atomic<bool> stopping{false};
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> refused{0};
  std::atomic<std::uint64_t> closed{0};
  std::atomic<std::uint64_t> idle_closed{0};
  std::atomic<std::uint64_t> overflow_closed{0};
  std::atomic<std::uint64_t> error_closed{0};
  std::atomic<std::size_t> open{0};

  Loop(Server& s, TcpServer::Options o) : server(s), options(std::move(o)) {}
  ~Loop() {
    if (listen_fd >= 0) ::close(listen_fd);
  }
  Loop(const Loop&) = delete;
  Loop& operator=(const Loop&) = delete;

  void adopt(int in_fd, int out_fd, bool socket, bool input_open);
  void accept_all();
  void read_input(Conn& c);
  bool flush(Conn& c);
  void service(Conn& c);
  void end_input(Conn& c);
  void finish(Conn& c, CloseWhy why);
  void close_finished();
  void run();

  /// From any thread: closes the listener and drains, as TcpServer::stop().
  void stop() {
    stopping.store(true);
    hub->wake();
  }
};

void Loop::adopt(int in_fd, int out_fd, bool socket, bool input_open) {
  const std::uint64_t id = next_id++;
  Conn& c = conns[id];
  c.id = id;
  c.in_fd = in_fd;
  c.out_fd = out_fd;
  c.socket = socket;
  c.last_active = Clock::now();
  ProtocolSession::Options session_options;
  session_options.with_latency = options.with_latency;
  session_options.on_progress = [hub = hub, id] { hub->notify(id); };
  c.session = std::make_unique<ProtocolSession>(server, session_options);
  if (socket) accepted.fetch_add(1);
  open.fetch_add(1);
  if (!input_open) end_input(c);
  service(c);
}

void Loop::accept_all() {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient accept error: back to poll().
    }
    if (conns.size() >= options.max_connections) {
      ::close(fd);
      refused.fetch_add(1);
      continue;
    }
    set_nonblocking(fd);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    adopt(fd, fd, /*socket=*/true, /*input_open=*/true);
  }
}

void Loop::end_input(Conn& c) {
  c.input_open = false;
  c.session->finish_input();
}

/// One read per readiness, so a blocking stdio fd never stalls the loop.
/// EOF and a read error (a reset, a closed fd) both end the input.
void Loop::read_input(Conn& c) {
  const ssize_t n = ::read(c.in_fd, buf, sizeof buf);
  if (n > 0) {
    c.session->feed({buf, static_cast<std::size_t>(n)});
    c.last_active = Clock::now();
  } else if (n == 0 || (errno != EINTR && errno != EAGAIN)) {
    end_input(c);
  }
}

/// Writes as much pending output as the fd takes; false on a write error.
bool Loop::flush(Conn& c) {
  while (c.out_pos < c.out.size()) {
    const char* data = c.out.data() + c.out_pos;
    const std::size_t size = c.out.size() - c.out_pos;
    const ssize_t n = c.socket ? ::send(c.out_fd, data, size, MSG_NOSIGNAL)
                               : ::write(c.out_fd, data, size);
    if (n > 0) {
      c.out_pos += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else if (n == 0 || errno != EINTR) {
      return false;
    }
  }
  if (c.out_pos == c.out.size()) {
    c.out.clear();
    c.out_pos = 0;
  } else if (c.out_pos > (std::size_t{1} << 20)) {
    c.out.erase(0, c.out_pos);
    c.out_pos = 0;
  }
  return true;
}

/// Pumps the session, writes what is ready, and finishes the connection
/// once its session is over and flushed, its output failed, or (a socket
/// only) its peer stopped reading.
void Loop::service(Conn& c) {
  if (c.closing) return;
  while (c.session->pump()) {
  }
  c.out += c.session->take_ready();
  if (!flush(c)) {
    if (!c.socket) write_failed = true;
    finish(c, CloseWhy::kError);
  } else if (c.socket && c.out_pending() > kWriteBufferLimit) {
    finish(c, CloseWhy::kOverflow);
  } else if (c.out_pending() == 0 && c.session->wants_close()) {
    finish(c, CloseWhy::kNormal);
  }
}

void Loop::finish(Conn& c, CloseWhy why) {
  if (c.closing) return;
  c.closing = why;
  closing.push_back(c.id);
}

void Loop::close_finished() {
  for (const std::uint64_t id : closing) {
    const auto it = conns.find(id);
    const CloseWhy why = *it->second.closing;
    if (it->second.socket) ::close(it->second.in_fd);
    conns.erase(it);
    open.fetch_sub(1);
    closed.fetch_add(1);
    if (why == CloseWhy::kIdle) idle_closed.fetch_add(1);
    if (why == CloseWhy::kOverflow) overflow_closed.fetch_add(1);
    if (why == CloseWhy::kError) error_closed.fetch_add(1);
  }
  closing.clear();
}

void Loop::run() {
  std::vector<pollfd> fds;
  std::vector<std::uint64_t> owners;  ///< Connection of fds[first_conn + i].
  std::vector<std::uint64_t> touched;  ///< Completions since the last poll().
  bool draining = false;
  Clock::time_point drain_deadline{};
  auto next_idle_check = Clock::now();
  const int idle_period = std::max(10, options.idle_timeout_ms / 4);

  while (listen_fd >= 0 || !conns.empty()) {
    if (stopping.load() && !draining) {
      // EOF every connection: parse what is buffered, drain in-flight
      // responses, then close each as it flushes.
      draining = true;
      drain_deadline = Clock::now() + std::chrono::milliseconds(kDrainGraceMs);
      if (listen_fd >= 0) ::close(listen_fd);
      listen_fd = -1;
      for (auto& [id, c] : conns) {
        end_input(c);
        service(c);
      }
    }
    if (draining && Clock::now() >= drain_deadline) {
      for (auto& [id, c] : conns) finish(c, CloseWhy::kError);
    }
    close_finished();
    if (listen_fd < 0 && conns.empty()) break;

    fds.clear();
    owners.clear();
    fds.push_back({hub->read_fd(), POLLIN, 0});
    if (listen_fd >= 0) fds.push_back({listen_fd, POLLIN, 0});
    const std::size_t first_conn = fds.size();
    for (const auto& [id, c] : conns) {
      const bool want_input =
          c.input_open && !c.session->input_paused() &&
          c.session->buffered_input() < kReadCap &&
          c.out_pending() < kWriteBufferLimit / 2;
      const short out_events = c.out_pending() > 0 ? POLLOUT : 0;
      if (c.in_fd == c.out_fd) {
        const short events = (want_input ? POLLIN : 0) | out_events;
        if (events != 0) fds.push_back({c.in_fd, events, 0});
      } else {
        if (want_input) fds.push_back({c.in_fd, POLLIN, 0});
        if (out_events != 0) fds.push_back({c.out_fd, out_events, 0});
      }
      owners.resize(fds.size() - first_conn, id);
    }

    int timeout = -1;
    if (draining) {
      timeout = 20;
    } else if (options.idle_timeout_ms > 0) {
      timeout = idle_period;
    }
    if (::poll(fds.data(), fds.size(), timeout) < 0) {
      // poll() fails only for want of memory: every input reads as EOF.
      if (errno != EINTR) {
        for (auto& [id, c] : conns) {
          end_input(c);
          service(c);
        }
      }
      continue;
    }

    touched.clear();
    if (fds[0].revents != 0) hub->drain(touched);
    if (listen_fd >= 0 && fds[1].revents != 0) accept_all();
    for (std::size_t i = first_conn; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      Conn& c = conns.at(owners[i - first_conn]);
      if (c.closing) continue;
      if (c.socket && (fds[i].revents & POLLERR) != 0) {
        finish(c, CloseWhy::kError);
        continue;
      }
      if ((fds[i].events & POLLIN) != 0 && c.input_open &&
          (fds[i].revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL)) != 0) {
        read_input(c);
      }
      service(c);
    }
    // Completion wake-ups: service every connection a worker touched.  A
    // completion anywhere may also have freed queue room for a request
    // parked on another connection, so every paused one is retried too.
    for (const std::uint64_t id : touched) {
      const auto it = conns.find(id);
      if (it != conns.end()) service(it->second);
    }
    if (!touched.empty()) {
      for (auto& [id, c] : conns) {
        if (c.session->input_paused()) service(c);
      }
    }

    if (!draining && options.idle_timeout_ms > 0 &&
        Clock::now() >= next_idle_check) {
      next_idle_check = Clock::now() + std::chrono::milliseconds(idle_period);
      const auto cutoff =
          Clock::now() - std::chrono::milliseconds(options.idle_timeout_ms);
      for (auto& [id, c] : conns) {
        if (c.last_active < cutoff && c.session->pending() == 0 &&
            c.out_pending() == 0) {
          finish(c, CloseWhy::kIdle);
        }
      }
    }
  }
}

/// A bound, listening, nonblocking socket.
int make_listener(const TcpServer::Options& options, std::uint16_t* port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::system_error(errno, std::generic_category(), "socket");
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (::inet_pton(AF_INET, options.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::invalid_argument("invalid bind address '" +
                                options.bind_address + "'");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 1024) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::system_error(err, std::generic_category(),
                            "bind/listen " + options.bind_address + ":" +
                                std::to_string(options.port));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    *port = ntohs(bound.sin_port);
  }
  set_nonblocking(fd);
  return fd;
}

}  // namespace

// --- serve_stream -----------------------------------------------------------

bool serve_stream(Server& server, int in_fd, int out_fd,
                  ProtocolSession::Options options) {
  // A closed in_fd reads as EOF.  Checked before the wake pipe is made,
  // which would otherwise take its number.
  const bool input_open = ::fcntl(in_fd, F_GETFD) != -1;
  TcpServer::Options loop_options;
  loop_options.with_latency = options.with_latency;
  Loop loop(server, std::move(loop_options));
  loop.adopt(in_fd, out_fd, /*socket=*/false, input_open);
  loop.run();
  return !loop.write_failed;
}

// --- TcpServer --------------------------------------------------------------

struct TcpServer::Impl {
  Loop loop;
  std::uint16_t port = 0;
  std::thread thread;
  std::atomic<bool> stopped{false};

  Impl(Server& server, Options options) : loop(server, std::move(options)) {}
};

TcpServer::TcpServer(Server& server, Options options)
    : impl_(std::make_unique<Impl>(server, std::move(options))) {
  impl_->loop.listen_fd = make_listener(impl_->loop.options, &impl_->port);
  impl_->thread = std::thread([loop = &impl_->loop] { loop->run(); });
}

TcpServer::~TcpServer() { stop(); }

std::uint16_t TcpServer::port() const { return impl_->port; }

TcpServer::Counters TcpServer::counters() const {
  const Loop& loop = impl_->loop;
  Counters c;
  c.accepted = loop.accepted.load();
  c.refused = loop.refused.load();
  c.closed = loop.closed.load();
  c.idle_closed = loop.idle_closed.load();
  c.overflow_closed = loop.overflow_closed.load();
  c.error_closed = loop.error_closed.load();
  c.open = loop.open.load();
  return c;
}

void TcpServer::stop() {
  if (impl_->stopped.exchange(true)) return;
  impl_->loop.stop();
  if (impl_->thread.joinable()) impl_->thread.join();
}

}  // namespace asipfb::service
