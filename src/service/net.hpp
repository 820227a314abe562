// Transports of the evaluation service: the one interpreter of the line
// protocol (protocol.hpp) and the two front ends that feed it bytes — a
// pair of file descriptors (stdin/stdout) and TCP sockets, so shells and
// CI as well as thousands of concurrent clients drive the same code.
//
//   * ProtocolSession — the transport-agnostic per-connection state
//     machine.  Bytes in, ordered response lines out: it splits lines,
//     parses commands, tracks `source` blocks, submits requests to the
//     Server without blocking (a refused request is parked and retried on
//     the next completion), and keeps one output slot per command so
//     responses are written strictly in submission order no matter how
//     the workers interleave (per-connection pipelining).  `stats`
//     acts as a pipeline barrier — it renders only after every earlier
//     request on the connection completed, so its counters are a pure
//     function of the script and a transcript is byte-stable whatever the
//     transport or the worker timing.  Completion callbacks run on the
//     Server's worker threads and only touch the session's internal
//     shared state, so a connection that disappears mid-request leaves the
//     in-flight job to finish harmlessly against that state (no worker
//     death, no leak).
//
//   * serve_stream — one ProtocolSession over an input and an output file
//     descriptor, woken by completions through poll(); asipfb_serve's
//     stdio mode.
//
//   * TcpServer — a single epoll event loop (Linux only) that accepts
//     connections and drives one ProtocolSession per connection.  It
//     handles slow and broken peers: nonblocking, bounded writes with
//     per-connection buffers (a peer that stops reading past the write
//     buffer limit is dropped, and reading pauses while the buffer is
//     high), idle timeouts, SIGPIPE-free sends, and
//     per-connection error isolation (a protocol error poisons one
//     connection's stream, never the process).
//
// docs/SERVICE.md describes the connection lifecycle and overload
// behavior in prose; tests/service/net_test.cpp pins the contracts.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "service/server.hpp"

namespace asipfb::service {

/// A single protocol line longer than this poisons the connection (one
/// rendered error, then ProtocolSession::wants_close()).
inline constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

/// In-flight responses per connection before parsing (and reading)
/// pauses — the per-connection pipelining depth cap.
inline constexpr std::size_t kMaxPipeline = 1024;

/// Per-connection protocol state machine; one instance per client.
/// Driven by exactly one transport thread (feed/pump/take_ready are not
/// reentrant); completion callbacks arrive concurrently from the
/// Server's workers and are internally synchronized.  Submission never
/// blocks: a request the server queue refuses is parked and retried by
/// the next pump(), and input_paused() tells the transport to stop
/// reading meanwhile.
class ProtocolSession {
 public:
  struct Options {
    bool with_latency = false;
    /// Invoked from worker threads whenever a completion may have
    /// made output ready; transports use it to wake their event loop.
    /// Must be set before the first feed() and must not throw.
    std::function<void()> on_progress;
  };

  ProtocolSession(Server& server, Options options);
  /// Safe while requests are still in flight: workers finish against the
  /// internally shared state, which outlives the session object.
  ~ProtocolSession();

  ProtocolSession(const ProtocolSession&) = delete;
  ProtocolSession& operator=(const ProtocolSession&) = delete;

  /// Buffers raw bytes; parsing happens in pump().
  void feed(std::string_view bytes);

  /// Signals EOF (peer half-closed): remaining complete lines still parse,
  /// an unterminated `source` block becomes a rendered error.
  void finish_input();

  /// Parses and submits as much buffered input as currently possible
  /// (parked request retry, stats barrier, pipelining cap).  Returns true
  /// if any progress was made — call again after completions.
  bool pump();

  /// Removes and returns the completed output prefix (response lines in
  /// submission order); empty when the front of the pipeline is still in
  /// flight.
  [[nodiscard]] std::string take_ready();

  /// True once the session is over (quit processed or EOF) and every
  /// response line has been produced and taken: the transport should
  /// flush and close.
  [[nodiscard]] bool wants_close() const;

  /// True while the session cannot absorb more input usefully (parked
  /// request, stats barrier, or pipelining cap reached): the transport
  /// should stop reading the socket until the next completion.
  [[nodiscard]] bool input_paused() const;

  /// Submitted-but-uncompleted requests (parked one included).
  [[nodiscard]] std::size_t pending() const;

  /// Raw bytes fed but not yet parsed; transports bound their reads with
  /// this so a flooding client cannot grow the session buffer unboundedly
  /// while the pipeline is paused.
  [[nodiscard]] std::size_t buffered_input() const;

 private:
  struct State;
  std::shared_ptr<State> state_;
};

/// Serves one ProtocolSession over a pair of file descriptors until it
/// wants_close(): `quit`, EOF on `in_fd`, or a poisoned stream (oversized
/// line).  Waits in poll() on `in_fd` plus a wake pipe that completions
/// signal, so each response is written to `out_fd` as soon as it and every
/// earlier one are ready, not when the next input line arrives.  Input is
/// not read while the session pauses it (parked request, stats barrier,
/// pipelining cap).  `options.on_progress` is replaced by serve_stream's own
/// wake-up.  Returns false if writing `out_fd` failed, true otherwise;
/// throws std::system_error if the wake pipe cannot be created.
bool serve_stream(Server& server, int in_fd, int out_fd,
                  ProtocolSession::Options options);

/// Socket front end: one epoll event-loop thread accepts TCP connections
/// and runs one ProtocolSession per connection against one shared Server.
/// Linux only.
class TcpServer {
 public:
  /// tripbench-only: the benchmark spells `options.mode = Mode::kEpoll`
  /// (tripbench/src/serve.cpp), from when a second transport existed.
  /// Epoll is the only transport; together with Options::mode, this goes
  /// when tripbench stops naming it.
  enum class Mode { kEpoll };

  struct Options {
    std::string bind_address = "127.0.0.1";
    std::uint16_t port = 0;  ///< 0 = ephemeral; see port().
    Mode mode = Mode::kEpoll;  ///< tripbench-only shim; see Mode.
    bool with_latency = false;
    /// Close a connection with no read activity and no in-flight work for
    /// this long; 0 disables.
    int idle_timeout_ms = 0;
    /// Accepted-and-open connection cap; excess accepts are closed
    /// immediately (counted in Counters::refused).
    std::size_t max_connections = 4096;
  };

  struct Counters {
    std::uint64_t accepted = 0;
    std::uint64_t refused = 0;         ///< Over max_connections.
    std::uint64_t closed = 0;          ///< All closes, any reason.
    std::uint64_t idle_closed = 0;     ///< Idle-timeout closes.
    std::uint64_t overflow_closed = 0; ///< Write-backpressure drops.
    std::uint64_t error_closed = 0;    ///< read/write errors, resets.
    std::size_t open = 0;
  };

  /// Binds, listens, and starts serving immediately; throws
  /// std::system_error when the socket cannot be set up and
  /// std::invalid_argument("TcpServer requires Linux (epoll)") off-Linux.
  TcpServer(Server& server, Options options);
  ~TcpServer();  ///< stop().

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// The bound port (resolves port 0).
  [[nodiscard]] std::uint16_t port() const;

  /// Graceful stop: closes the listener, lets open connections drain
  /// in-flight responses for up to 5 s, then force-closes the
  /// rest and joins the event-loop thread.  Idempotent.  The Server keeps
  /// running — shut it down separately.
  void stop();

  [[nodiscard]] Counters counters() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace asipfb::service
