// asipfb_serve: the evaluation service behind a newline-delimited
// request/response protocol over stdin/stdout, so shells, scripts, and CI
// can drive the concurrent server without linking anything.
//
//   $ ./examples/asipfb_serve [--workers N] [--queue N] [--latency]
//   > 1 detect fir level=O1
//   < {"id": 1, "kind": "detect", "workload": "fir", "ok": true, ...}
//
// One command per input line (grammar: src/service/protocol.hpp and
// docs/SERVICE.md).  Requests are submitted asynchronously to a
// service::Server and responses are printed in submission order, each as
// soon as it is ready, so a scripted session's output is deterministic
// and diffable — CI pipes examples/serve_demo.txt through this binary and
// diffs the result.  Control lines: `source <name> <n>` binds the next n
// raw lines as BenchC under a workload name, `stats` prints server
// counters, `ping` prints a liveness line, `quit` (or EOF) drains and
// exits.
//
// With --tcp PORT the same protocol is served over sockets instead
// (service::TcpServer); the process then runs until SIGINT/SIGTERM and
// shuts down gracefully.  Both modes run the one protocol interpreter,
// service::ProtocolSession.
#include <unistd.h>

#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "cache/store.hpp"
#include "examples/flag_parse.hpp"
#include "service/net.hpp"

using namespace asipfb;

namespace {

struct ServeOptions {
  service::ServerOptions server;  ///< The same for stdio and TCP.
  std::string cache_dir;          ///< Opened as the Server's Store.
  bool with_latency = false;
  bool help = false;
  bool tcp = false;
  int tcp_port = 0;
  int idle_timeout_ms = 0;
  std::string port_file;
};

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: asipfb_serve [--workers N] [--queue N] [--latency]\n"
               "                    [--cache-dir DIR]\n"
               "                    [--tcp PORT [--port-file F]\n"
               "                     [--idle-timeout MS]]\n"
               "\n"
               "Serves the compiler-feedback pipeline over a line protocol:\n"
               "one command per stdin line, one JSON response per stdout\n"
               "line, in submission order.\n"
               "\n"
               "  <id> <kind> <workload> [key=value]...\n"
               "      kind: compile|optimize|detect|coverage|extension|sweep\n"
               "      keys: level min max prune adjacency maxocc floor rounds\n"
               "            area cycle levels floors budgets\n"
               "  source <name> <line-count>   bind BenchC text to a name\n"
               "  stats | ping | quit          control lines\n"
               "\n"
               "options:\n"
               "  --workers N   worker threads, at most %u (default: hardware)\n"
               "  --queue N     queue capacity (default 256)\n"
               "  --latency     include latency/uptime fields in output\n"
               "                (nondeterministic; off for diffable runs)\n"
               "  --cache-dir DIR  persistent artifact cache: baselines and\n"
               "                stage artifacts are read from DIR when valid\n"
               "                and written back after cold computes, so a\n"
               "                restarted (or replicated) service warm-starts;\n"
               "                a summary line goes to stderr on exit\n"
               "  --tcp PORT    serve the protocol over TCP on 127.0.0.1:PORT\n"
               "                (0 picks an ephemeral port) instead of stdio;\n"
               "                runs until SIGINT/SIGTERM\n"
               "  --port-file F write the bound port to F once listening\n"
               "  --idle-timeout MS  close idle TCP connections after MS\n"
               "  --help        print this help and exit\n",
               service::kMaxWorkerThreads);
}

bool parse_args(int argc, char** argv, ServeOptions& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--help" || arg == "-h") {
      options.help = true;
    } else if (arg == "--workers") {
      const auto v =
          examples::parse_int_flag(next(), 1, service::kMaxWorkerThreads);
      if (!v) return false;
      options.server.workers = static_cast<unsigned>(*v);
    } else if (arg == "--queue") {
      const auto v = examples::parse_int_flag(next(), 1, INT_MAX);
      if (!v) return false;
      options.server.queue_capacity = static_cast<std::size_t>(*v);
    } else if (arg == "--latency") {
      options.with_latency = true;
    } else if (arg == "--cache-dir") {
      const char* v = next();
      if (v == nullptr || *v == '\0') return false;
      options.cache_dir = v;
    } else if (arg == "--tcp") {
      const auto v = examples::parse_int_flag(next(), 0, 65535);
      if (!v) return false;
      options.tcp = true;
      options.tcp_port = static_cast<int>(*v);
    } else if (arg == "--port-file") {
      const char* v = next();
      if (v == nullptr) return false;
      options.port_file = v;
    } else if (arg == "--idle-timeout") {
      const auto v = examples::parse_int_flag(next(), 1, INT_MAX);
      if (!v) return false;
      options.idle_timeout_ms = static_cast<int>(*v);
    } else {
      return false;
    }
  }
  // Port plumbing only makes sense for the socket front end.
  return options.tcp ||
         (options.port_file.empty() && options.idle_timeout_ms == 0);
}

/// stderr summary of the artifact cache, printed at every exit path when a
/// cache dir was configured.  Deliberately on stderr: stdout transcripts
/// stay byte-stable, while the warm-restart CI smoke greps this line to
/// assert the second run actually hit the cache.
void print_cache_summary(const std::shared_ptr<cache::Store>& store,
                         const service::Stats& stats) {
  if (store == nullptr) return;
  // Read from the Store itself, not from `stats`: the latency smoke
  // checks the stats line's store_* against this line.
  const cache::StoreStats s = store->stats();
  std::fprintf(stderr,
               "asipfb_serve: cache summary: dir=%s hits=%llu misses=%llu "
               "writes=%llu evictions=%llu corrupt=%llu baselines_disk=%llu\n",
               store->dir().c_str(), static_cast<unsigned long long>(s.hits),
               static_cast<unsigned long long>(s.misses),
               static_cast<unsigned long long>(s.writes),
               static_cast<unsigned long long>(s.evictions),
               static_cast<unsigned long long>(s.corrupt),
               static_cast<unsigned long long>(stats.pool.disk_cache));
}

/// TCP mode: a TcpServer in front of the Server, then park on sigwait
/// until SIGINT/SIGTERM and stop it gracefully.  main() blocked `sigs`
/// before the Server spawned any thread, so every thread inherits the
/// mask and delivery is confined to sigwait.
int serve_tcp(service::Server& server, const ServeOptions& options,
              const sigset_t& sigs) {
  service::TcpServer::Options tcp_options;
  tcp_options.port = static_cast<std::uint16_t>(options.tcp_port);
  tcp_options.with_latency = options.with_latency;
  tcp_options.idle_timeout_ms = options.idle_timeout_ms;
  std::unique_ptr<service::TcpServer> tcp;
  try {
    tcp = std::make_unique<service::TcpServer>(server, tcp_options);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "asipfb_serve: %s\n", ex.what());
    return 1;
  }

  if (!options.port_file.empty()) {
    std::ofstream out(options.port_file, std::ios::trunc);
    out << tcp->port() << "\n";
    out.close();  // Flushes: a full device fails here, not at destruction.
    if (!out) {
      std::fprintf(stderr, "asipfb_serve: cannot write port file '%s'\n",
                   options.port_file.c_str());
      return 1;
    }
  }
  std::fprintf(stderr, "asipfb_serve: listening on 127.0.0.1:%u (%u worker%s)\n",
               static_cast<unsigned>(tcp->port()), server.workers(),
               server.workers() == 1 ? "" : "s");

  int sig = 0;
  while (sigwait(&sigs, &sig) != 0) {
  }
  std::fprintf(stderr, "asipfb_serve: signal %d, shutting down\n", sig);
  tcp->stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ServeOptions options;
  if (!parse_args(argc, argv, options)) {
    print_usage(stderr);
    return 2;
  }
  if (options.help) {
    print_usage(stdout);
    return 0;
  }

  sigset_t sigs;
  sigemptyset(&sigs);
  if (options.tcp) {
    sigaddset(&sigs, SIGINT);
    sigaddset(&sigs, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &sigs, nullptr);
  }

  std::unique_ptr<service::Server> server;
  try {
    if (!options.cache_dir.empty()) {
      cache::StoreOptions store_options;
      store_options.dir = options.cache_dir;
      options.server.store =
          std::make_shared<cache::Store>(std::move(store_options));
    }
    server = std::make_unique<service::Server>(options.server);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "asipfb_serve: %s\n", ex.what());
    return 1;
  }

  int code = 0;
  if (options.tcp) {
    code = serve_tcp(*server, options, sigs);
  } else {
    service::ProtocolSession::Options session_options;
    session_options.with_latency = options.with_latency;
    if (!service::serve_stream(*server, STDIN_FILENO, STDOUT_FILENO,
                               session_options)) {
      std::fprintf(stderr, "asipfb_serve: cannot write stdout\n");
      code = 1;
    }
  }
  server->shutdown();
  print_cache_summary(server->store(), server->stats());
  return code;
}
