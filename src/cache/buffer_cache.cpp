#include "cache/buffer_cache.h"

#include <algorithm>
#include <cstring>

namespace dtio::cache {

namespace {

/// Append `seg` to `segs`, merging with the previous segment when the two
/// are physically contiguous on the same handle (one disk op covers both).
void append_coalesced(std::vector<IoSeg>& segs, const IoSeg& seg) {
  if (!segs.empty()) {
    IoSeg& prev = segs.back();
    if (prev.handle == seg.handle && prev.offset + prev.bytes == seg.offset) {
      prev.bytes += seg.bytes;
      return;
    }
  }
  segs.push_back(seg);
}

}  // namespace

BlockCache::BlockCache(const CacheConfig& config, ByteStore& store)
    : config_(config), store_(&store) {
  if (config_.block_bytes <= 0) config_.block_bytes = 64 * 1024;
  // ByteRange tracks in-block offsets in 32 bits; cap the block size so
  // in_block + run can never overflow.
  config_.block_bytes =
      std::min<std::int64_t>(config_.block_bytes, kMaxBlockBytes);
  capacity_blocks_ = static_cast<std::size_t>(
      std::max<std::int64_t>(1, config_.capacity_bytes / config_.block_bytes));
  protected_cap_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(capacity_blocks_) *
                                  config_.protected_fraction));
}

BlockCache::Block& BlockCache::touch(const BlockKey& key, AccessPlan& plan) {
  const auto it = blocks_.find(key);
  if (it != blocks_.end()) {
    ++stats_.hits;
    ++plan.hits;
    Block& block = it->second;
    if (block.in_protected) {
      protected_.splice(protected_.begin(), protected_, block.lru_it);
    } else {
      // Re-reference promotes probation -> protected (SLRU): only blocks
      // touched at least twice can occupy the protected segment.
      protected_.splice(protected_.begin(), probation_, block.lru_it);
      block.in_protected = true;
      if (protected_.size() > protected_cap_) {
        const BlockKey demoted = protected_.back();
        Block& d = blocks_.at(demoted);
        probation_.splice(probation_.begin(), protected_,
                          std::prev(protected_.end()));
        d.in_protected = false;
      }
    }
    return block;
  }
  ++stats_.misses;
  ++plan.misses;
  // Evict before inserting so the victim can never be the key being added:
  // with capacity 1 and the lone resident block in the protected segment,
  // evicting after the insert would pick the new probation MRU itself.
  while (blocks_.size() >= capacity_blocks_) evict_one(plan);
  probation_.push_front(key);
  Block& block = blocks_[key];
  block.lru_it = probation_.begin();
  return block;
}

void BlockCache::evict_one(AccessPlan& plan) {
  // Probation LRU first; the protected segment only gives blocks up when
  // probation is empty.
  const bool from_probation = !probation_.empty();
  std::list<BlockKey>& seg = from_probation ? probation_ : protected_;
  const BlockKey victim = seg.back();
  Block& block = blocks_.at(victim);
  if (block.dirty) flush_block(victim, block, &plan.async_writes, &plan);
  seg.pop_back();
  blocks_.erase(victim);
  ++stats_.evictions;
  ++plan.evictions;
}

void BlockCache::flush_block(const BlockKey& key, Block& block,
                             std::vector<IoSeg>* out_segs, AccessPlan* plan) {
  const std::int64_t base = key.index * config_.block_bytes;
  std::int64_t flushed = 0;
  for (const ByteRange& r : block.dirty_ranges) {
    flushed += r.second - r.first;
    if (!block.staged.empty()) {
      store_->write_at(key.handle, base + r.first,
                       std::span<const std::uint8_t>(
                           block.staged.data() + r.first,
                           static_cast<std::size_t>(r.second - r.first)));
    }
  }
  if (out_segs != nullptr && !block.dirty_ranges.empty()) {
    // One disk op covering the dirty hull of the block.
    const std::int64_t lo = block.dirty_ranges.front().first;
    const std::int64_t hi = block.dirty_ranges.back().second;
    append_coalesced(*out_segs, IoSeg{key.handle, base + lo, hi - lo});
  }
  stats_.dirty_flushed_bytes += static_cast<std::uint64_t>(flushed);
  if (plan != nullptr) {
    plan->flushed_bytes += static_cast<std::uint64_t>(flushed);
  }
  dirty_bytes_ -= flushed;
  block.dirty = false;
  dirty_order_.erase(block.dirty_it);
  block.dirty_ranges.clear();
  block.staged.clear();
  block.staged.shrink_to_fit();
}

void BlockCache::mark_dirty(const BlockKey& key, Block& block,
                            std::int32_t begin, std::int32_t end) {
  if (!block.dirty) {
    block.dirty = true;
    dirty_order_.push_back(key);
    block.dirty_it = std::prev(dirty_order_.end());
  }
  // Insert-merge into the sorted disjoint range list.
  std::vector<ByteRange>& ranges = block.dirty_ranges;
  ByteRange merged{begin, end};
  std::vector<ByteRange> out;
  out.reserve(ranges.size() + 1);
  std::int64_t added = end - begin;
  for (const ByteRange& r : ranges) {
    if (r.second < merged.first || merged.second < r.first) {
      out.push_back(r);
    } else {  // overlap or touch: absorb
      added -= std::max<std::int64_t>(
          0, std::min(r.second, merged.second) -
                 std::max(r.first, merged.first));
      merged.first = std::min(merged.first, r.first);
      merged.second = std::max(merged.second, r.second);
    }
  }
  out.push_back(merged);
  std::sort(out.begin(), out.end());
  ranges = std::move(out);
  dirty_bytes_ += added;
}

void BlockCache::read(std::uint64_t handle, std::int64_t offset,
                      std::int64_t length, std::span<std::uint8_t> out,
                      AccessPlan& plan) {
  if (length <= 0) return;
  const std::int64_t bb = config_.block_bytes;
  std::int64_t done = 0;
  while (done < length) {
    const std::int64_t at = offset + done;
    const BlockKey key{handle, at / bb};
    const std::int64_t in_block = at % bb;
    const std::int64_t run = std::min(length - done, bb - in_block);
    const bool was_resident = blocks_.contains(key);
    Block& block = touch(key, plan);
    if (!was_resident) {
      // Miss fill: read the whole block from storage, coalesced with an
      // adjacent preceding miss into one disk op.
      append_coalesced(plan.sync_reads, IoSeg{handle, key.index * bb, bb});
    }
    if (!out.empty()) {
      const std::span<std::uint8_t> chunk =
          out.subspan(static_cast<std::size_t>(done),
                      static_cast<std::size_t>(run));
      store_->read_at(handle, at, chunk);
      // Read-your-writes: staged write-back bytes overlay storage.
      if (!block.staged.empty()) {
        for (const ByteRange& r : block.dirty_ranges) {
          const std::int64_t lo = std::max<std::int64_t>(r.first, in_block);
          const std::int64_t hi =
              std::min<std::int64_t>(r.second, in_block + run);
          if (lo < hi) {
            std::memcpy(chunk.data() + (lo - in_block),
                        block.staged.data() + lo,
                        static_cast<std::size_t>(hi - lo));
          }
        }
      }
    }
    done += run;
  }
  detect_and_prefetch(handle, offset / bb, (offset + length - 1) / bb, plan);
}

void BlockCache::write(std::uint64_t handle, std::int64_t offset,
                       std::int64_t length,
                       std::span<const std::uint8_t> data, AccessPlan& plan) {
  if (length <= 0) return;
  const std::int64_t bb = config_.block_bytes;
  std::int64_t done = 0;
  while (done < length) {
    const std::int64_t at = offset + done;
    const BlockKey key{handle, at / bb};
    const std::int64_t in_block = at % bb;
    const std::int64_t run = std::min(length - done, bb - in_block);
    Block& block = touch(key, plan);
    if (config_.write_through) {
      if (!data.empty()) {
        store_->write_at(handle, at,
                         data.subspan(static_cast<std::size_t>(done),
                                      static_cast<std::size_t>(run)));
      } else {
        store_->note_size(handle, at, run);
      }
      append_coalesced(plan.sync_writes, IoSeg{handle, at, run});
    } else {
      mark_dirty(key, block, static_cast<std::int32_t>(in_block),
                 static_cast<std::int32_t>(in_block + run));
      if (!data.empty()) {
        if (block.staged.empty()) {
          block.staged.assign(static_cast<std::size_t>(bb), 0);
        }
        std::memcpy(block.staged.data() + in_block, data.data() + done,
                    static_cast<std::size_t>(run));
      }
      // Size is metadata: it advances now even though the bytes are only
      // staged (and may be lost in a crash).
      store_->note_size(handle, at, run);
    }
    done += run;
  }
}

void BlockCache::detect_and_prefetch(std::uint64_t handle,
                                     std::int64_t first_block,
                                     std::int64_t last_block,
                                     AccessPlan& plan) {
  if (config_.readahead_window <= 0) return;
  // Readahead that would thrash most of the cache is worse than misses.
  if (static_cast<std::size_t>(config_.readahead_window) >
      capacity_blocks_ / 2) {
    return;
  }
  Stream& stream = streams_[handle];
  const std::int64_t len = last_block - first_block + 1;
  if (stream.prev_start >= 0) {
    const std::int64_t stride = first_block - stream.prev_start;
    if (stride == 0) {
      // Still inside the previous blocks (many small regions per block):
      // neither a new stride sample nor a reset.
    } else if (stride > 0 && stride == stream.stride) {
      ++stream.run;
    } else if (stride > 0) {
      stream.stride = stride;
      stream.run = 1;
    } else {
      // Backward seek: a new scan is starting. Clear the prefetch frontier
      // too, or a re-scan of blocks covered (and since evicted) by an
      // earlier forward pass would get zero readahead.
      stream.stride = 0;
      stream.run = 0;
      stream.frontier = -1;
    }
  }
  stream.prev_start = first_block;
  stream.prev_len = len;
  if (stream.run < config_.readahead_min_run || stream.stride <= 0) return;

  // Prefetch the access shape projected forward along the stride, past
  // both the current access and everything already prefetched — but never
  // past EOF (there is nothing on disk to read there).
  const std::int64_t size = store_->size_of(handle);
  const std::int64_t last_file_block =
      size <= 0 ? -1 : (size - 1) / config_.block_bytes;
  std::vector<std::int64_t> targets;
  std::int64_t issued = 0;
  for (std::int64_t k = 1;
       issued < config_.readahead_window &&
       k <= config_.readahead_window * std::max<std::int64_t>(1, stream.stride);
       ++k) {
    const std::int64_t start = first_block + k * stream.stride;
    if (start > last_file_block) break;  // so is every later start
    for (std::int64_t j = 0;
         j < len && issued < config_.readahead_window; ++j) {
      const std::int64_t b = start + j;
      if (b > last_file_block) break;
      if (b <= last_block || b <= stream.frontier) continue;
      if (blocks_.contains(BlockKey{handle, b})) continue;
      targets.push_back(b);
      ++issued;
    }
  }
  if (targets.empty()) return;
  std::sort(targets.begin(), targets.end());
  for (const std::int64_t b : targets) {
    const BlockKey key{handle, b};
    // Prefetched blocks enter probation resident-clean; the hit/miss
    // ledger counts only demand accesses, so insert directly (evicting
    // first so the victim can never be the block just prefetched).
    while (blocks_.size() >= capacity_blocks_) evict_one(plan);
    probation_.push_front(key);
    Block& block = blocks_[key];
    block.lru_it = probation_.begin();
    append_coalesced(plan.async_reads,
                     IoSeg{handle, b * config_.block_bytes,
                           config_.block_bytes});
    stream.frontier = std::max(stream.frontier, b);
    ++stats_.readahead_issued;
    ++plan.readahead_blocks;
  }
}

void BlockCache::maybe_background_flush(AccessPlan& plan) {
  if (config_.write_through) return;
  const double mark =
      config_.dirty_watermark * static_cast<double>(config_.capacity_bytes);
  if (static_cast<double>(dirty_bytes_) <= mark) return;
  const auto target = static_cast<std::int64_t>(mark / 2);
  std::vector<BlockKey> victims;
  std::int64_t reclaimed = 0;
  for (const BlockKey& key : dirty_order_) {
    if (dirty_bytes_ - reclaimed <= target) break;
    victims.push_back(key);
    for (const ByteRange& r : blocks_.at(key).dirty_ranges) {
      reclaimed += r.second - r.first;
    }
  }
  flush_keys(std::move(victims), &plan);
}

void BlockCache::flush_all(AccessPlan* plan) {
  flush_keys({dirty_order_.begin(), dirty_order_.end()}, plan);
}

void BlockCache::flush_keys(std::vector<BlockKey> keys, AccessPlan* plan) {
  // Coalesce: adjacent dirty blocks flush as one disk op regardless of the
  // order they were dirtied in.
  std::sort(keys.begin(), keys.end(),
            [](const BlockKey& a, const BlockKey& b) {
              return a.handle != b.handle ? a.handle < b.handle
                                          : a.index < b.index;
            });
  std::vector<IoSeg> segs;
  for (const BlockKey& key : keys) {
    flush_block(key, blocks_.at(key), &segs, plan);
  }
  if (plan != nullptr) {
    for (const IoSeg& seg : segs) plan->async_writes.push_back(seg);
  }
}

std::uint64_t BlockCache::drop_all(std::vector<IoSeg>* lost_extents,
                                   const LostDataSink& lost_data) {
  const auto lost = static_cast<std::uint64_t>(dirty_bytes_);
  stats_.dirty_lost_bytes += lost;
  if (lost_extents != nullptr || lost_data) {
    for (const BlockKey& key : dirty_order_) {
      const Block& block = blocks_.at(key);
      for (const ByteRange& r : block.dirty_ranges) {
        const IoSeg seg{key.handle, key.index * config_.block_bytes + r.first,
                        static_cast<std::int64_t>(r.second) - r.first};
        if (lost_extents != nullptr) lost_extents->push_back(seg);
        if (lost_data) {
          lost_data(seg, block.staged.empty()
                             ? std::span<const std::uint8_t>{}
                             : std::span<const std::uint8_t>(
                                   block.staged.data() + r.first,
                                   static_cast<std::size_t>(seg.bytes)));
        }
      }
    }
  }
  blocks_.clear();
  probation_.clear();
  protected_.clear();
  dirty_order_.clear();
  dirty_bytes_ = 0;
  streams_.clear();
  return lost;
}

}  // namespace dtio::cache
