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
// service::Server and responses are printed in submission order, so a
// scripted session's output is deterministic and diffable — CI pipes
// examples/serve_demo.txt through this binary and diffs the result.
// Control lines: `source <name> <n>` binds the next n raw lines as BenchC
// under a workload name, `stats` prints server counters, `ping` prints a
// liveness line, `quit` (or EOF) drains and exits.
//
// With --tcp PORT the same protocol is served over sockets instead
// (service::TcpServer), optionally sharded (--shards N routes each
// workload to a dedicated shard via consistent hashing); the process then
// runs until SIGINT/SIGTERM and shuts down gracefully.  The stdio path is
// unchanged and stays byte-stable for the checked-in transcript diff.
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdio>
#include <deque>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <string>

#include "examples/flag_parse.hpp"
#include "service/net.hpp"
#include "service/protocol.hpp"
#include "service/router.hpp"
#include "service/server.hpp"
#include "support/json.hpp"

using namespace asipfb;

namespace {

struct ServeOptions {
  service::ServerOptions server;
  bool with_latency = false;
  bool help = false;
  bool tcp = false;
  int tcp_port = 0;
  unsigned shards = 1;
  int idle_timeout_ms = 0;
  std::string port_file;
};

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: asipfb_serve [--workers N] [--queue N] [--latency]\n"
               "                    [--cache-dir DIR]\n"
               "                    [--tcp PORT [--shards N] [--port-file F]\n"
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
               "  --workers N   worker threads per shard (default: hardware)\n"
               "  --queue N     queue capacity per shard (default 256)\n"
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
               "  --shards N    shard the service N ways behind a consistent-\n"
               "                hash router (TCP mode only; default 1)\n"
               "  --port-file F write the bound port to F once listening\n"
               "  --idle-timeout MS  close idle TCP connections after MS\n"
               "  --help        print this help and exit\n");
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
      const auto v = examples::parse_int_flag(next(), 1, INT_MAX);
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
      options.server.cache_dir = v;
    } else if (arg == "--tcp") {
      const auto v = examples::parse_int_flag(next(), 0, 65535);
      if (!v) return false;
      options.tcp = true;
      options.tcp_port = static_cast<int>(*v);
    } else if (arg == "--shards") {
      const auto v = examples::parse_int_flag(next(), 1, INT_MAX);
      if (!v) return false;
      options.shards = static_cast<unsigned>(*v);
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
  // Sharding/port plumbing only makes sense for the socket front end.
  if (!options.tcp &&
      (options.shards != 1 || !options.port_file.empty() ||
       options.idle_timeout_ms != 0)) {
    return false;
  }
  return true;
}

/// stderr summary of the artifact cache, printed at every exit path when a
/// cache dir was configured.  Deliberately on stderr: stdout transcripts
/// stay byte-stable, while the warm-restart CI smoke greps this line to
/// assert the second run actually hit the cache.
void print_cache_summary(const std::shared_ptr<cache::Store>& store,
                         const service::Stats& stats) {
  if (store == nullptr) return;
  const cache::StoreStats s = store->stats();
  std::fprintf(stderr,
               "asipfb_serve: cache summary: dir=%s hits=%llu misses=%llu "
               "writes=%llu evictions=%llu corrupt=%llu baselines_disk=%llu\n",
               store->dir().c_str(), static_cast<unsigned long long>(s.hits),
               static_cast<unsigned long long>(s.misses),
               static_cast<unsigned long long>(s.writes),
               static_cast<unsigned long long>(s.evictions),
               static_cast<unsigned long long>(s.corrupt),
               static_cast<unsigned long long>(stats.baselines_disk));
}

/// TCP mode: Router (sharded service) + TcpServer, then park on sigwait
/// until SIGINT/SIGTERM and shut both down gracefully.  Signals are
/// blocked before any thread is spawned so every thread inherits the
/// mask and delivery is confined to sigwait.
int serve_tcp(const ServeOptions& options) {
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  service::RouterOptions router_options;
  router_options.shards = options.shards;
  router_options.server = options.server;
  std::unique_ptr<service::Router> router_holder;
  try {
    router_holder = std::make_unique<service::Router>(router_options);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "asipfb_serve: %s\n", ex.what());
    return 1;
  }
  service::Router& router = *router_holder;

  service::TcpServer::Options tcp_options;
  tcp_options.port = static_cast<std::uint16_t>(options.tcp_port);
  tcp_options.with_latency = options.with_latency;
  tcp_options.idle_timeout_ms = options.idle_timeout_ms;
  std::unique_ptr<service::TcpServer> tcp;
  try {
    tcp = std::make_unique<service::TcpServer>(router, tcp_options);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "asipfb_serve: %s\n", ex.what());
    return 1;
  }

  if (!options.port_file.empty()) {
    std::ofstream out(options.port_file, std::ios::trunc);
    out << tcp->port() << "\n";
    if (!out) {
      std::fprintf(stderr, "asipfb_serve: cannot write port file '%s'\n",
                   options.port_file.c_str());
      return 1;
    }
  }
  std::fprintf(stderr, "asipfb_serve: listening on 127.0.0.1:%u (%u shard%s)\n",
               static_cast<unsigned>(tcp->port()), options.shards,
               options.shards == 1 ? "" : "s");

  int sig = 0;
  while (sigwait(&sigs, &sig) != 0) {
  }
  std::fprintf(stderr, "asipfb_serve: signal %d, shutting down\n", sig);
  tcp->stop();
  router.shutdown();
  print_cache_summary(router.store(), router.stats());
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
  if (options.tcp) return serve_tcp(options);

  std::unique_ptr<service::Server> server_holder;
  try {
    server_holder = std::make_unique<service::Server>(options.server);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "asipfb_serve: %s\n", ex.what());
    return 1;
  }
  service::Server& server = *server_holder;
  std::map<std::string, std::string> sources;  // `source`-bound programs.
  std::deque<std::future<service::Response>> pending;

  auto drain = [&] {
    while (!pending.empty()) {
      std::printf("%s\n", service::render_response(pending.front().get(),
                                                   options.with_latency)
                              .c_str());
      pending.pop_front();
    }
    std::fflush(stdout);
  };

  std::string line;
  while (std::getline(std::cin, line)) {
    service::Command command;
    try {
      command = service::parse_command(line);
      if (command.type == service::Command::Type::kSource) {
        std::string text;
        for (int n = 0; n < command.source_lines; ++n) {
          std::string body;
          if (!std::getline(std::cin, body)) {
            throw std::invalid_argument("EOF inside source block '" +
                                        command.source_name + "'");
          }
          text += body;
          text += '\n';
        }
        sources[command.source_name] = text;
      }
    } catch (const std::exception& ex) {
      drain();  // Keep output in input order even for parse errors.
      std::printf("%s\n", service::render_error(ex.what()).c_str());
      std::fflush(stdout);
      continue;
    }

    switch (command.type) {
      case service::Command::Type::kComment:
        break;
      case service::Command::Type::kSource: {
        drain();
        support::JsonWriter ack;
        ack.inline_object()
            .member("source", command.source_name)
            .member("lines", command.source_lines)
            .end_object();
        std::printf("%s\n", ack.str().c_str());
        std::fflush(stdout);
        break;
      }
      case service::Command::Type::kRequest: {
        auto it = sources.find(command.request.workload);
        if (it != sources.end()) command.request.source = it->second;
        pending.push_back(server.submit(std::move(command.request)));
        // Print any responses that are already finished, preserving order.
        while (!pending.empty() &&
               pending.front().wait_for(std::chrono::seconds(0)) ==
                   std::future_status::ready) {
          std::printf("%s\n", service::render_response(pending.front().get(),
                                                       options.with_latency)
                                  .c_str());
          pending.pop_front();
          std::fflush(stdout);
        }
        break;
      }
      case service::Command::Type::kStats:
        drain();  // Counters are deterministic once all pending work is done.
        std::printf("%s\n",
                    service::render_stats(server.stats(), options.with_latency)
                        .c_str());
        std::fflush(stdout);
        break;
      case service::Command::Type::kPing: {
        drain();
        support::JsonWriter pong;
        pong.inline_object()
            .member("pong", true)
            .member("workers", server.workers())
            .end_object();
        std::printf("%s\n", pong.str().c_str());
        std::fflush(stdout);
        break;
      }
      case service::Command::Type::kQuit:
        drain();
        print_cache_summary(server.store(), server.stats());
        return 0;
    }
  }
  drain();
  print_cache_summary(server.store(), server.stats());
  return 0;
}
