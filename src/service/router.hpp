// tripbench-only shim.  The benchmark's warm_serve still spells the service
// as `Router(RouterOptions{shards = 2, server.workers = 1})`, reads
// `shard(shard_for(w)).pool()`, `shard_count()`, `call()` and `stats()`,
// and hands `*router` to TcpServer, from when one process could split into
// shard Servers behind a consistent-hash ring.  The service is one Server
// now, so this Router is that Server started with shards x workers worker
// threads, one queue and one pool: shard_count() is 1, shard() is the
// Router itself and shard_for() is 0.  It goes when tripbench builds a
// Server.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "service/server.hpp"

namespace asipfb::service {

struct RouterOptions {
  /// >= 1; shards x resolved_workers(server.workers) is at most
  /// kMaxWorkerThreads.
  unsigned shards = 1;
  ServerOptions server;
};

class Router : public Server {
 public:
  /// Throws std::invalid_argument for 0 shards or more than
  /// kMaxWorkerThreads workers in total, before any thread starts.
  explicit Router(RouterOptions options = {})
      : Server(server_options(std::move(options))) {}

  [[nodiscard]] std::size_t shard_count() const { return 1; }
  [[nodiscard]] Server& shard(std::size_t /*index*/) { return *this; }
  [[nodiscard]] std::size_t shard_for(std::string_view /*key*/) const {
    return 0;
  }

 private:
  static ServerOptions server_options(RouterOptions options) {
    if (options.shards == 0) {
      throw std::invalid_argument("Router shards must be >= 1");
    }
    const std::uint64_t total = std::uint64_t{options.shards} *
                                resolved_workers(options.server.workers);
    if (total > kMaxWorkerThreads) {
      throw std::invalid_argument("Router shards x workers must be <= " +
                                  std::to_string(kMaxWorkerThreads));
    }
    options.server.workers = static_cast<unsigned>(total);
    return std::move(options.server);
  }
};

}  // namespace asipfb::service
