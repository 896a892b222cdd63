#include "collective/comm.h"

#include <utility>

namespace dtio::coll {

Communicator::Communicator(sim::Scheduler& sched, net::Network& network,
                           const net::ClusterConfig& config, int nranks)
    : sched_(&sched),
      network_(&network),
      config_(&config),
      nranks_(nranks),
      seq_(static_cast<std::size_t>(nranks), 0) {}

sim::Task<std::vector<std::int64_t>> Communicator::allgather64(
    int rank, Box<std::vector<std::int64_t>> mine) {
  const std::uint64_t block = reserve_block(rank);
  std::vector<std::int64_t> values = mine.take();
  const auto width = static_cast<std::size_t>(values.size());
  const std::uint64_t wire = width * 8;
  const int me = node_of(rank);

  if (rank != 0) {
    co_await network_->send(
        me, node_of(0), sim::Message(me, block, wire, std::move(values)));
    sim::Message msg =
        *co_await network_->mailbox(me).recv(node_of(0), block + 1);
    co_return msg.take<std::vector<std::int64_t>>();
  }

  std::vector<std::int64_t> all(width * static_cast<std::size_t>(nranks_));
  std::copy(values.begin(), values.end(), all.begin());
  for (int src = 1; src < nranks_; ++src) {
    sim::Message msg =
        *co_await network_->mailbox(me).recv(node_of(src), block);
    auto theirs = msg.take<std::vector<std::int64_t>>();
    std::copy(theirs.begin(), theirs.end(),
              all.begin() + static_cast<std::ptrdiff_t>(
                                width * static_cast<std::size_t>(src)));
  }
  const std::uint64_t all_wire = all.size() * 8;
  for (int dst = 1; dst < nranks_; ++dst) {
    co_await network_->send(
        me, node_of(dst),
        sim::Message(me, block + 1, all_wire, all));
  }
  co_return all;
}

sim::Task<void> Communicator::barrier(int rank) {
  const std::uint64_t block = reserve_block(rank);
  const int me = node_of(rank);
  if (rank != 0) {
    co_await network_->send(me, node_of(0),
                            sim::Message(me, block, 0, 0));
    (void)co_await network_->mailbox(me).recv(node_of(0), block + 1);
    co_return;
  }
  for (int src = 1; src < nranks_; ++src) {
    (void)co_await network_->mailbox(me).recv(node_of(src), block);
  }
  for (int dst = 1; dst < nranks_; ++dst) {
    co_await network_->send(me, node_of(dst),
                            sim::Message(me, block + 1, 0, 0));
  }
}

sim::Task<void> Communicator::send_exchange(int src_rank, int dst_rank,
                                            std::uint64_t tag,
                                            Box<ExchangePayload> payload,
                                            std::uint64_t wire_payload_bytes) {
  const int src = node_of(src_rank);
  co_await network_->send(src, node_of(dst_rank),
                          sim::Message(src, tag, wire_payload_bytes,
                                       payload.take()));
}

sim::Task<ExchangePayload> Communicator::recv_exchange(int my_rank,
                                                       int src_rank,
                                                       std::uint64_t tag) {
  sim::Message msg = *co_await network_->mailbox(node_of(my_rank))
                          .recv(node_of(src_rank), tag);
  co_return msg.take<ExchangePayload>();
}

}  // namespace dtio::coll
