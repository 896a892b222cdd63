// Instrumentation counters backing Tables 1-3 of the paper: per-client
// desired data, data actually accessed at servers, number of file-system
// I/O operations, and data resent between clients (two-phase I/O).
#pragma once

#include <cstdint>
#include <string>

namespace dtio {

/// Counters accumulated by one client (or one collective participant)
/// during an access-method run. Every I/O method updates these through the
/// client/file-system plumbing, so the table benches just read them out.
struct IoStats {
  std::uint64_t desired_bytes = 0;    ///< bytes the application asked for
  std::uint64_t accessed_bytes = 0;   ///< bytes moved between servers' storage and the network on this client's behalf
  std::uint64_t io_ops = 0;           ///< file-system-level I/O operations issued
  std::uint64_t resent_bytes = 0;     ///< bytes exchanged client<->client (two-phase redistribution)
  std::uint64_t request_bytes = 0;    ///< request-descriptor payload (list-I/O region lists, dataloops)
  std::uint64_t regions_client = 0;   ///< offset-length regions produced on the client
  std::uint64_t requests_sent = 0;    ///< network requests to I/O servers

  IoStats& operator+=(const IoStats& other) noexcept {
    desired_bytes += other.desired_bytes;
    accessed_bytes += other.accessed_bytes;
    io_ops += other.io_ops;
    resent_bytes += other.resent_bytes;
    request_bytes += other.request_bytes;
    regions_client += other.regions_client;
    requests_sent += other.requests_sent;
    return *this;
  }

  void reset() noexcept { *this = IoStats{}; }

  /// One-line rendering for logs and EXPERIMENTS.md capture.
  [[nodiscard]] std::string to_string() const;
};

}  // namespace dtio
