#include "service/net.hpp"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <system_error>
#include <utility>

#if defined(__linux__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <unordered_map>
#include <vector>
#endif

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

// --- serve_stream -----------------------------------------------------------

namespace {

/// serve_stream's wake-up: completions bump `generation` and write a byte
/// to the pipe that poll() watches.  Held by shared_ptr from on_progress,
/// so a late callback never writes to a closed (possibly reused) fd: the
/// pipe closes only when the last reference goes.
struct StreamWake {
  int fds[2] = {-1, -1};
  std::atomic<std::uint64_t> generation{0};

  StreamWake() {
    if (::pipe(fds) != 0) {
      throw std::system_error(errno, std::generic_category(), "pipe");
    }
    for (const int fd : fds) {
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
      ::fcntl(fd, F_SETFD, FD_CLOEXEC);
    }
  }
  ~StreamWake() {
    ::close(fds[0]);
    ::close(fds[1]);
  }
  StreamWake(const StreamWake&) = delete;
  StreamWake& operator=(const StreamWake&) = delete;

  void notify() {
    generation.fetch_add(1, std::memory_order_acq_rel);
    // A full pipe (EAGAIN) is already readable: nothing is lost.
    const char byte = 0;
    [[maybe_unused]] const auto n = ::write(fds[1], &byte, 1);
  }

  void drain() const {
    char buf[256];
    while (::read(fds[0], buf, sizeof buf) > 0) {
    }
  }
};

/// Writes all of `bytes`, waiting for POLLOUT if `fd` is nonblocking.
bool write_all(int fd, const std::string& bytes) {
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + pos, bytes.size() - pos);
    if (n > 0) {
      pos += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd out{fd, POLLOUT, 0};
      ::poll(&out, 1, -1);
    } else if (n < 0 && errno != EINTR) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool serve_stream(Server& server, int in_fd, int out_fd,
                  ProtocolSession::Options options) {
  // A closed in_fd reads as EOF.  Checked before pipe(), which would
  // otherwise hand out its number to the wake pipe.
  bool input_open = ::fcntl(in_fd, F_GETFD) != -1;
  const auto wake = std::make_shared<StreamWake>();
  options.on_progress = [wake] { wake->notify(); };
  const std::size_t read_cap = kMaxLineBytes + (std::size_t{1} << 16);
  ProtocolSession session(server, std::move(options));
  if (!input_open) session.finish_input();
  char buf[1 << 16];
  for (;;) {
    const std::uint64_t seen = wake->generation.load(std::memory_order_acquire);
    while (session.pump()) {
    }
    if (!write_all(out_fd, session.take_ready())) return false;
    if (session.wants_close()) return true;
    // A completion that landed since `seen` may have readied the front
    // slot or freed room for the parked request: go round again at once.
    // One landing after this check still wakes poll() through the pipe.
    if (wake->generation.load(std::memory_order_acquire) != seen) continue;

    const bool want_input = input_open && !session.input_paused() &&
                            session.buffered_input() < read_cap;
    pollfd fds[2] = {{wake->fds[0], POLLIN, 0}, {in_fd, POLLIN, 0}};
    if (::poll(fds, want_input ? 2 : 1, -1) < 0) {
      if (errno != EINTR && want_input) {
        input_open = false;  // An unpollable input ends like EOF.
        session.finish_input();
      }
      continue;
    }
    if (fds[0].revents != 0) wake->drain();
    if (!want_input || fds[1].revents == 0) continue;
    const ssize_t n = ::read(in_fd, buf, sizeof buf);
    if (n > 0) {
      session.feed({buf, static_cast<std::size_t>(n)});
    } else if (n == 0 || (errno != EINTR && errno != EAGAIN)) {
      input_open = false;  // EOF, or a read error treated as one.
      session.finish_input();
    }
  }
}

// --- TcpServer --------------------------------------------------------------

#if defined(__linux__)

namespace {

using Clock = std::chrono::steady_clock;

/// Pending unwritten output per connection before the peer is declared
/// broken and dropped (write backpressure bound); reading pauses at half
/// this.
constexpr std::size_t kWriteBufferLimit = std::size_t{8} << 20;

/// stop(): how long open connections may drain in-flight responses before
/// they are force-closed.
constexpr int kDrainGraceMs = 5000;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_peer_options(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

/// Completion wake-up fan-in shared by the epoll loop and every session's
/// on_progress callback.  Outlives the TcpServer: callbacks from jobs
/// whose connection died keep a reference and hit the `dead` no-op
/// instead of a closed (possibly recycled) eventfd.
struct WakeHub {
  std::mutex mu;
  std::vector<int> ready_fds;
  int event_fd = -1;
  bool dead = false;

  void notify(int fd) {
    const std::lock_guard<std::mutex> lock(mu);
    if (dead) return;
    ready_fds.push_back(fd);
    const std::uint64_t one = 1;
    [[maybe_unused]] const auto n = ::write(event_fd, &one, sizeof one);
  }

  std::vector<int> drain() {
    std::vector<int> fds;
    const std::lock_guard<std::mutex> lock(mu);
    fds.swap(ready_fds);
    return fds;
  }

  void kill() {
    const std::lock_guard<std::mutex> lock(mu);
    dead = true;
    if (event_fd >= 0) ::close(event_fd);
    event_fd = -1;
  }
};

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

struct EpollConn {
  int fd = -1;
  std::unique_ptr<ProtocolSession> session;
  std::string out;
  std::size_t out_pos = 0;
  Clock::time_point last_active;
  bool read_eof = false;
  std::uint32_t events = 0;  ///< Currently registered epoll interest.
};

}  // namespace

struct TcpServer::Impl {
  Server& server;
  Options options;
  int listen_fd = -1;
  int epoll_fd = -1;
  std::uint16_t port = 0;
  std::thread loop_thread;
  std::shared_ptr<WakeHub> hub;

  std::atomic<bool> stopping{false};
  std::mutex stop_mu;
  bool stopped = false;

  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> refused{0};
  std::atomic<std::uint64_t> closed{0};
  std::atomic<std::uint64_t> idle_closed{0};
  std::atomic<std::uint64_t> overflow_closed{0};
  std::atomic<std::uint64_t> error_closed{0};
  std::atomic<std::size_t> open{0};

  Impl(Server& s, Options o) : server(s), options(std::move(o)) {}

  void run_epoll_loop();
  void stop();
};

TcpServer::TcpServer(Server& server, Options options)
    : impl_(std::make_unique<Impl>(server, std::move(options))) {
  impl_->listen_fd = make_listener(impl_->options, &impl_->port);
  impl_->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (impl_->epoll_fd < 0) {
    const int err = errno;
    ::close(impl_->listen_fd);
    throw std::system_error(err, std::generic_category(), "epoll_create1");
  }
  impl_->hub = std::make_shared<WakeHub>();
  impl_->hub->event_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (impl_->hub->event_fd < 0) {
    const int err = errno;
    ::close(impl_->listen_fd);
    ::close(impl_->epoll_fd);
    throw std::system_error(err, std::generic_category(), "eventfd");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = impl_->listen_fd;
  ::epoll_ctl(impl_->epoll_fd, EPOLL_CTL_ADD, impl_->listen_fd, &ev);
  ev.events = EPOLLIN;
  ev.data.fd = impl_->hub->event_fd;
  ::epoll_ctl(impl_->epoll_fd, EPOLL_CTL_ADD, impl_->hub->event_fd, &ev);
  impl_->loop_thread = std::thread([impl = impl_.get()] {
    impl->run_epoll_loop();
  });
}

TcpServer::~TcpServer() { stop(); }

std::uint16_t TcpServer::port() const { return impl_->port; }

TcpServer::Counters TcpServer::counters() const {
  Counters c;
  c.accepted = impl_->accepted.load();
  c.refused = impl_->refused.load();
  c.closed = impl_->closed.load();
  c.idle_closed = impl_->idle_closed.load();
  c.overflow_closed = impl_->overflow_closed.load();
  c.error_closed = impl_->error_closed.load();
  c.open = impl_->open.load();
  return c;
}

void TcpServer::stop() { impl_->stop(); }

void TcpServer::Impl::stop() {
  {
    const std::lock_guard<std::mutex> lock(stop_mu);
    if (stopped) return;
    stopped = true;
  }
  stopping.store(true);
  hub->notify(-1);  // Wake the loop; it handles the drain.
  if (loop_thread.joinable()) loop_thread.join();
  hub->kill();
  ::close(epoll_fd);
  epoll_fd = -1;
}

void TcpServer::Impl::run_epoll_loop() {
  std::unordered_map<int, std::unique_ptr<EpollConn>> conns;
  const std::size_t read_cap = kMaxLineBytes + (std::size_t{1} << 16);
  const std::size_t write_highwater = kWriteBufferLimit / 2;
  bool draining = false;
  Clock::time_point drain_deadline{};
  auto next_idle_check = Clock::now();

  enum class CloseWhy { kNormal, kIdle, kOverflow, kError };
  auto close_conn = [&](int fd, CloseWhy why) {
    const auto it = conns.find(fd);
    if (it == conns.end()) return;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    conns.erase(it);
    open.fetch_sub(1);
    closed.fetch_add(1);
    if (why == CloseWhy::kIdle) idle_closed.fetch_add(1);
    if (why == CloseWhy::kOverflow) overflow_closed.fetch_add(1);
    if (why == CloseWhy::kError) error_closed.fetch_add(1);
  };

  // Pump/flush one connection; returns false when it was closed.
  auto service = [&](EpollConn& c) -> bool {
    while (c.session->pump()) {
    }
    c.out += c.session->take_ready();
    while (c.out_pos < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_pos,
                               c.out.size() - c.out_pos, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_pos += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      close_conn(c.fd, CloseWhy::kError);
      return false;
    }
    if (c.out_pos == c.out.size()) {
      c.out.clear();
      c.out_pos = 0;
    } else if (c.out_pos > (std::size_t{1} << 20)) {
      c.out.erase(0, c.out_pos);
      c.out_pos = 0;
    }
    const std::size_t out_pending = c.out.size() - c.out_pos;
    if (out_pending > kWriteBufferLimit) {
      close_conn(c.fd, CloseWhy::kOverflow);  // Peer stopped reading.
      return false;
    }
    if (out_pending == 0 && c.session->wants_close()) {
      close_conn(c.fd, CloseWhy::kNormal);
      return false;
    }
    const bool read_on = !c.read_eof && !c.session->input_paused() &&
                         c.session->buffered_input() < read_cap &&
                         out_pending < write_highwater;
    const std::uint32_t want = (read_on ? EPOLLIN : 0u) |
                               (out_pending > 0 ? EPOLLOUT : 0u) | EPOLLRDHUP;
    if (want != c.events) {
      epoll_event ev{};
      ev.events = want;
      ev.data.fd = c.fd;
      ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, c.fd, &ev);
      c.events = want;
    }
    return true;
  };

  auto accept_all = [&] {
    for (;;) {
      const int cfd = ::accept(listen_fd, nullptr, nullptr);
      if (cfd < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN or a transient accept error: back to epoll.
      }
      if (draining || conns.size() >= options.max_connections) {
        ::close(cfd);
        refused.fetch_add(1);
        continue;
      }
      set_nonblocking(cfd);
      set_peer_options(cfd);
      auto conn = std::make_unique<EpollConn>();
      conn->fd = cfd;
      conn->last_active = Clock::now();
      ProtocolSession::Options popts;
      popts.with_latency = options.with_latency;
      popts.on_progress = [hub = hub, cfd] { hub->notify(cfd); };
      conn->session = std::make_unique<ProtocolSession>(server, popts);
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLRDHUP;
      ev.data.fd = cfd;
      if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, cfd, &ev) != 0) {
        ::close(cfd);
        continue;
      }
      conn->events = ev.events;
      conns.emplace(cfd, std::move(conn));
      accepted.fetch_add(1);
      open.fetch_add(1);
    }
  };

  std::vector<epoll_event> events(512);
  char buf[1 << 16];
  for (;;) {
    int timeout = -1;
    if (draining) {
      timeout = 20;
    } else if (options.idle_timeout_ms > 0) {
      timeout = std::max(10, options.idle_timeout_ms / 4);
    }
    const int n =
        ::epoll_wait(epoll_fd, events.data(), static_cast<int>(events.size()),
                     timeout);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const std::uint32_t ev = events[i].events;
      if (fd == hub->event_fd) {
        std::uint64_t drainv = 0;
        [[maybe_unused]] const auto r =
            ::read(hub->event_fd, &drainv, sizeof drainv);
        continue;  // Ready fds handled below.
      }
      if (fd == listen_fd) {
        accept_all();
        continue;
      }
      const auto it = conns.find(fd);
      if (it == conns.end()) continue;
      EpollConn& c = *it->second;
      if (ev & EPOLLERR) {
        close_conn(fd, CloseWhy::kError);
        continue;
      }
      if (ev & (EPOLLIN | EPOLLRDHUP | EPOLLHUP)) {
        for (;;) {
          const ssize_t r = ::recv(fd, buf, sizeof buf, 0);
          if (r > 0) {
            c.session->feed({buf, static_cast<std::size_t>(r)});
            c.last_active = Clock::now();
            if (c.session->buffered_input() >= read_cap) break;
            continue;
          }
          if (r == 0) {
            c.read_eof = true;
            c.session->finish_input();
            break;
          }
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          c.read_eof = true;  // Connection reset: stop reading, try to flush.
          c.session->finish_input();
          break;
        }
      }
      service(c);
    }

    // Completion wake-ups: pump/flush every connection a worker touched.
    for (const int fd : hub->drain()) {
      const auto it = conns.find(fd);
      if (it != conns.end()) service(*it->second);
    }

    if (stopping.load() && !draining) {
      draining = true;
      drain_deadline = Clock::now() +
                       std::chrono::milliseconds(kDrainGraceMs);
      if (listen_fd >= 0) {
        ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, listen_fd, nullptr);
        ::close(listen_fd);
        listen_fd = -1;
      }
      // EOF every connection: parse what's buffered, drain in-flight
      // responses, then close as each flushes.
      std::vector<int> fds;
      fds.reserve(conns.size());
      for (const auto& [fd, conn] : conns) fds.push_back(fd);
      for (const int fd : fds) {
        const auto it = conns.find(fd);
        if (it == conns.end()) continue;
        it->second->read_eof = true;
        it->second->session->finish_input();
        service(*it->second);
      }
    }
    if (draining) {
      if (conns.empty()) break;
      if (Clock::now() >= drain_deadline) {
        std::vector<int> fds;
        fds.reserve(conns.size());
        for (const auto& [fd, conn] : conns) fds.push_back(fd);
        for (const int fd : fds) close_conn(fd, CloseWhy::kError);
        break;
      }
      continue;
    }

    if (options.idle_timeout_ms > 0 && Clock::now() >= next_idle_check) {
      next_idle_check =
          Clock::now() + std::chrono::milliseconds(
                             std::max(10, options.idle_timeout_ms / 4));
      const auto cutoff =
          Clock::now() - std::chrono::milliseconds(options.idle_timeout_ms);
      std::vector<int> idle;
      for (const auto& [fd, conn] : conns) {
        if (conn->last_active < cutoff && conn->session->pending() == 0 &&
            conn->out_pos == conn->out.size()) {
          idle.push_back(fd);
        }
      }
      for (const int fd : idle) close_conn(fd, CloseWhy::kIdle);
    }
  }
  // Loop exit: everything still open is force-closed above; make sure the
  // listener is gone even on an error path.
  if (listen_fd >= 0) {
    ::close(listen_fd);
    listen_fd = -1;
  }
}

#else  // !__linux__

struct TcpServer::Impl {};

TcpServer::TcpServer(Server& /*server*/, Options /*options*/) {
  throw std::invalid_argument("TcpServer requires Linux (epoll)");
}

TcpServer::~TcpServer() = default;

std::uint16_t TcpServer::port() const { return 0; }

TcpServer::Counters TcpServer::counters() const { return {}; }

void TcpServer::stop() {}

#endif  // __linux__

}  // namespace asipfb::service
