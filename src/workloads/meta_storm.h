// The metadata-storm workload: many application processes hammering the
// namespace and lock space at once — create / stat / open / remove loops
// over per-rank file populations, plus striped byte-range lock/unlock
// traffic over a shared file. This is the access pattern that saturates a
// single metadata server (every op pays the full request_overhead on one
// node) and that the sharded metadata service (ClusterConfig::meta_shards)
// exists to scale.
//
// Pure configuration: the bench and tests drive the cluster themselves.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "common/units.h"

namespace dtio::workloads {

struct MetaStormConfig {
  int num_clients = 16;
  /// Files each rank creates, stats, opens, and removes (4 metadata ops
  /// per file). Rank-private names, so the population hash-spreads over
  /// the shards without any cross-rank namespace conflicts.
  int files_per_client = 48;
  /// Striped lock/unlock pairs each rank performs on the shared file.
  int lock_pairs = 32;
  /// Byte range each lock pair covers; with ClusterConfig::
  /// lock_stripe_bytes below this, one pair spans several stripes (and so
  /// several shards), exercising the ascending-stripe acquisition order.
  std::int64_t lock_range_bytes = 256 * kKiB;

  /// Rank-private file name: "/storm/r<rank>/f<i>".
  [[nodiscard]] std::string path(int rank, int i) const {
    char buf[48];
    std::snprintf(buf, sizeof buf, "/storm/r%d/f%d", rank, i);
    return std::string(buf);
  }

  /// The shared file every rank locks against.
  [[nodiscard]] static const char* shared_path() noexcept {
    return "/storm/shared";
  }
};

}  // namespace dtio::workloads
