#include "dataloop/cursor.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace dtio::dl {

namespace {

bool packed(const Dataloop& loop) noexcept {
  return loop.solid && loop.extent == loop.size;
}

}  // namespace

Cursor::Cursor(DataloopPtr loop, std::int64_t base, std::int64_t count)
    : loop_(std::move(loop)), base_(base), count_(count) {
  if (!loop_) throw std::invalid_argument("Cursor: null dataloop");
  if (count_ < 0) throw std::invalid_argument("Cursor: negative count");
  if (count_ == 0 || loop_->size == 0) done_ = true;
}

bool Cursor::block_atomic(const Dataloop& loop) noexcept {
  // Blocks of `blocklen` packed child instances form single contiguous
  // runs: emit at block granularity instead of descending per element.
  switch (loop.kind) {
    case Kind::kVector:
    case Kind::kBlockIndexed:
    case Kind::kIndexed:
      return packed(*loop.child);
    case Kind::kStruct:
      return false;  // handled per-block (children differ)
    default:
      return false;
  }
}

bool Cursor::prune_subtree(const Dataloop& sub, std::int64_t origin) {
  if (filter_ == nullptr ||
      filter_(filter_ctx_, origin + sub.data_lb, origin + sub.data_ub)) {
    return false;
  }
  pos_ += sub.size;
  ++subtrees_skipped_;
  regions_pruned_ += sub.regions;
  bytes_pruned_ += sub.size;
  return true;
}

bool Cursor::prune_block(const Dataloop& child, std::int64_t start,
                         std::int64_t blocklen) {
  if (filter_ == nullptr) return false;
  // Instances sit at start + j*extent, j in [0, blocklen); extent may be
  // negative, so take the span over both ends.
  const std::int64_t span = (blocklen - 1) * child.extent;
  const std::int64_t lo = start + std::min<std::int64_t>(span, 0) + child.data_lb;
  const std::int64_t hi = start + std::max<std::int64_t>(span, 0) + child.data_ub;
  if (filter_(filter_ctx_, lo, hi)) return false;
  const std::int64_t bytes = blocklen * child.size;
  pos_ += bytes;
  ++subtrees_skipped_;
  regions_pruned_ += packed(child) ? 1 : blocklen * child.regions;
  bytes_pruned_ += bytes;
  return true;
}

bool Cursor::prune_atomic(std::int64_t region_lo, std::int64_t region_len) {
  if (filter_ == nullptr) return false;
  // The remainder of a partially-consumed block is a sub-span of the
  // block, so rejecting it is as sound as rejecting the whole block.
  const std::int64_t lo = region_lo + region_consumed_;
  const std::int64_t len = region_len - region_consumed_;
  if (filter_(filter_ctx_, lo, lo + len)) return false;
  pos_ += len;
  region_consumed_ = 0;
  ++subtrees_skipped_;
  ++regions_pruned_;
  bytes_pruned_ += len;
  return true;
}

void Cursor::skip_rejected_run(Frame& f) {
  const Dataloop& L = *f.loop;
  const Dataloop& child = *L.child;
  // Per-block probing would stop at the loop end, and before any block
  // that starts at or past the stream limit.
  if (pos_ >= limit_ || f.block == L.count) return;
  if (gallop_holdoff_ > 0) {
    --gallop_holdoff_;
    return;
  }
  const std::int64_t block_bytes = L.blocklen * child.size;
  const std::int64_t max_run =
      std::min(L.count - f.block, (limit_ - pos_ - 1) / block_bytes + 1);
  // Data span of one block relative to its start, over both ends (child
  // extent may be negative); blocks step by the stride, which may be too.
  const std::int64_t span = (L.blocklen - 1) * child.extent;
  const std::int64_t lo_off = std::min<std::int64_t>(span, 0) + child.data_lb;
  const std::int64_t hi_off = std::max<std::int64_t>(span, 0) + child.data_ub;
  const std::int64_t first = f.origin + f.block * L.stride;
  const auto rejects = [&](std::int64_t k) {
    const std::int64_t last = first + (k - 1) * L.stride;
    return !filter_(filter_ctx_, std::min(first, last) + lo_off,
                    std::max(first, last) + hi_off);
  };
  // The span of k blocks contains that of fewer, so rejection is monotone
  // in k: gallop to bracket the longest rejected run, then bisect.
  std::int64_t good = 0;           // longest run known rejected
  std::int64_t bad = max_run + 1;  // shortest run known kept (or too long)
  for (std::int64_t k = 1; good < max_run; k = std::min(2 * k, max_run)) {
    if (!rejects(k)) {
      bad = k;
      break;
    }
    good = k;
  }
  while (bad - good > 1) {
    const std::int64_t mid = good + (bad - good) / 2;
    if (rejects(mid)) {
      good = mid;
    } else {
      bad = mid;
    }
  }
  // A run that a kept span cut short of 4 blocks cost at least one probe
  // more than probing its blocks singly. Back off where that keeps
  // happening, as when the gaps between blocks hold wanted bytes so no
  // multi-block span is ever rejected.
  if (bad <= max_run && good < 4) {
    gallop_backoff_ = std::min<std::int64_t>(2 * gallop_backoff_ + 1, 64);
    gallop_holdoff_ = gallop_backoff_;
  } else {
    gallop_backoff_ = 0;
  }
  f.block += good;
  f.elem = 0;
  pos_ += good * block_bytes;
  subtrees_skipped_ += good;
  regions_pruned_ += good * (packed(child) ? 1 : L.blocklen * child.regions);
  bytes_pruned_ += good * block_bytes;
}

void Cursor::settle() {
  while (!done_) {
    if (pos_ >= limit_) {
      done_ = true;
      return;
    }
    if (stack_.empty()) {
      if (inst_ == count_) {
        done_ = true;
        return;
      }
      const std::int64_t origin = base_ + inst_ * loop_->extent;
      if (prune_subtree(*loop_, origin)) {
        ++inst_;
        continue;
      }
      stack_.push_back(Frame{loop_.get(), origin});
      continue;
    }
    Frame& f = stack_.back();
    const Dataloop& L = *f.loop;

    if (L.kind == Kind::kLeaf || L.solid) return;  // atomic whole instance

    switch (L.kind) {
      case Kind::kContig: {
        if (f.block == L.count || L.child->size == 0) {
          pop_and_advance();
          break;
        }
        const std::int64_t origin = f.origin + f.block * L.child->extent;
        if (prune_subtree(*L.child, origin)) {
          ++f.block;
          break;
        }
        stack_.push_back(Frame{L.child.get(), origin});
        break;
      }
      case Kind::kVector:
      case Kind::kBlockIndexed: {
        if (f.block == L.count || L.child->size == 0 || L.blocklen == 0) {
          pop_and_advance();
          break;
        }
        if (f.elem == L.blocklen) {
          f.elem = 0;
          ++f.block;
          break;
        }
        const std::int64_t start =
            f.origin + (L.kind == Kind::kVector
                            ? f.block * L.stride
                            : L.offsets[static_cast<std::size_t>(f.block)]);
        if (block_atomic(L)) {
          if (prune_atomic(start + L.child->data_lb,
                           L.blocklen * L.child->size)) {
            f.elem = 0;
            ++f.block;
            if (L.kind == Kind::kVector) skip_rejected_run(f);
            break;
          }
          return;  // atomic block
        }
        if (f.elem == 0 && prune_block(*L.child, start, L.blocklen)) {
          ++f.block;
          if (L.kind == Kind::kVector) skip_rejected_run(f);
          break;
        }
        const std::int64_t elem_origin = start + f.elem * L.child->extent;
        if (prune_subtree(*L.child, elem_origin)) {
          ++f.elem;
          break;
        }
        stack_.push_back(Frame{L.child.get(), elem_origin});
        break;
      }
      case Kind::kIndexed: {
        if (f.block == L.count || L.child->size == 0) {
          pop_and_advance();
          break;
        }
        const std::int64_t bl = L.blocklens[static_cast<std::size_t>(f.block)];
        if (bl == 0 || f.elem == bl) {
          f.elem = 0;
          ++f.block;
          break;
        }
        const std::int64_t start =
            f.origin + L.offsets[static_cast<std::size_t>(f.block)];
        if (block_atomic(L)) {
          if (prune_atomic(start + L.child->data_lb, bl * L.child->size)) {
            f.elem = 0;
            ++f.block;
            break;
          }
          return;  // atomic block
        }
        if (f.elem == 0 && prune_block(*L.child, start, bl)) {
          ++f.block;
          break;
        }
        const std::int64_t elem_origin = start + f.elem * L.child->extent;
        if (prune_subtree(*L.child, elem_origin)) {
          ++f.elem;
          break;
        }
        stack_.push_back(Frame{L.child.get(), elem_origin});
        break;
      }
      case Kind::kStruct: {
        if (f.block == L.count) {
          pop_and_advance();
          break;
        }
        const auto bi = static_cast<std::size_t>(f.block);
        const Dataloop& child = *L.children[bi];
        const std::int64_t bl = L.blocklens[bi];
        if (bl == 0 || child.size == 0 || f.elem == bl) {
          f.elem = 0;
          ++f.block;
          break;
        }
        const std::int64_t start = f.origin + L.offsets[bi];
        if (packed(child)) {
          if (prune_atomic(start + child.data_lb, bl * child.size)) {
            f.elem = 0;
            ++f.block;
            break;
          }
          return;  // atomic block
        }
        if (f.elem == 0 && prune_block(child, start, bl)) {
          ++f.block;
          break;
        }
        const std::int64_t elem_origin = start + f.elem * child.extent;
        if (prune_subtree(child, elem_origin)) {
          ++f.elem;
          break;
        }
        stack_.push_back(Frame{&child, elem_origin});
        break;
      }
      case Kind::kLeaf:
        return;  // unreachable (handled above)
    }
  }
}

void Cursor::pop_and_advance() {
  stack_.pop_back();
  if (stack_.empty()) {
    ++inst_;
    return;
  }
  Frame& parent = stack_.back();
  if (parent.loop->kind == Kind::kContig) {
    ++parent.block;
  } else {
    ++parent.elem;
  }
}

Region Cursor::current_region() const {
  const Frame& f = stack_.back();
  const Dataloop& L = *f.loop;
  Region r;
  if (L.kind == Kind::kLeaf) {
    r = Region{f.origin, L.el_size};
  } else if (L.solid) {
    r = Region{f.origin + L.data_lb, L.size};
  } else {
    // Block-atomic: whole block of packed child instances.
    const auto bi = static_cast<std::size_t>(f.block);
    std::int64_t start = f.origin;
    std::int64_t bl = 0;
    const Dataloop* child = nullptr;
    switch (L.kind) {
      case Kind::kVector:
        start += f.block * L.stride;
        bl = L.blocklen;
        child = L.child.get();
        break;
      case Kind::kBlockIndexed:
        start += L.offsets[bi];
        bl = L.blocklen;
        child = L.child.get();
        break;
      case Kind::kIndexed:
        start += L.offsets[bi];
        bl = L.blocklens[bi];
        child = L.child.get();
        break;
      case Kind::kStruct:
        start += L.offsets[bi];
        bl = L.blocklens[bi];
        child = L.children[bi].get();
        break;
      default:
        assert(false && "unexpected atomic frame kind");
        return {};
    }
    r = Region{start + child->data_lb, bl * child->size};
  }
  r.offset += region_consumed_;
  r.length -= region_consumed_;
  return r;
}

bool Cursor::peek(Region& out) {
  settle();
  if (done_) return false;
  out = current_region();
  // A stream limit may cut the final region short.
  if (out.length > limit_ - pos_) out.length = limit_ - pos_;
  return true;
}

void Cursor::advance(std::int64_t len) {
  assert(!done_ && !stack_.empty());
  const Region r = current_region();
  assert(len >= 0 && len <= r.length);
  pos_ += len;
  if (len < r.length) {
    region_consumed_ += len;
    return;
  }
  region_consumed_ = 0;

  Frame& f = stack_.back();
  const Dataloop& L = *f.loop;
  if (L.kind == Kind::kLeaf || L.solid) {
    pop_and_advance();
  } else {
    // Block-atomic frame: advance to the next block.
    f.elem = 0;
    ++f.block;
  }
}

bool Cursor::peek_run(Region& out, std::int64_t& stride, std::int64_t& n) {
  stride = 0;
  n = 1;
  if (!peek(out)) return false;
  if (filter_ != nullptr || region_consumed_ != 0 || stack_.size() < 2) {
    return true;
  }
  const Dataloop& L = *stack_.back().loop;
  const Frame& parent = stack_[stack_.size() - 2];
  if ((L.kind != Kind::kLeaf && !L.solid) ||
      parent.loop->kind != Kind::kContig) {
    return true;
  }
  // Under no filter, settle() steps a contig frame to its next child with
  // no probe, so the siblings come out extent apart, each L.size long.
  n = std::min(parent.loop->count - parent.block, (limit_ - pos_) / L.size);
  n = std::max<std::int64_t>(n, 1);
  stride = L.extent;
  return true;
}

void Cursor::advance_run(std::int64_t k) {
  assert(!done_ && !stack_.empty() && k >= 1);
  if (k == 1) {
    advance(std::min(current_region().length, limit_ - pos_));
    return;
  }
  // Only a contig run has k > 1, and its regions are whole solid
  // children: step the parent past k of them and pop the solid frame, as
  // advance() does after the last.
  Frame& parent = stack_[stack_.size() - 2];
  assert(parent.loop->kind == Kind::kContig && region_consumed_ == 0 &&
         parent.block + k <= parent.loop->count);
  parent.block += k - 1;
  pos_ += k * stack_.back().loop->size;
  pop_and_advance();
}

void Cursor::seek(std::int64_t stream_pos) {
  if (stream_pos < 0 || stream_pos > total_bytes()) {
    throw std::out_of_range("Cursor::seek: position outside stream");
  }
  stack_.clear();
  region_consumed_ = 0;
  pos_ = stream_pos;
  done_ = false;
  if (stream_pos == total_bytes() || loop_->size == 0) {
    inst_ = count_;
    done_ = true;
    return;
  }
  inst_ = stream_pos / loop_->size;
  const std::int64_t rem = stream_pos % loop_->size;
  descend_to(loop_.get(), base_ + inst_ * loop_->extent, rem);
}

void Cursor::descend_to(const Dataloop* loop, std::int64_t origin,
                        std::int64_t rem) {
  const Dataloop& L = *loop;
  Frame frame{loop, origin};

  if (L.kind == Kind::kLeaf || L.solid) {
    region_consumed_ = rem;
    stack_.push_back(frame);
    return;
  }

  switch (L.kind) {
    case Kind::kContig: {
      const std::int64_t i = rem / L.child->size;
      frame.block = i;
      stack_.push_back(frame);
      descend_to(L.child.get(), origin + i * L.child->extent,
                 rem % L.child->size);
      return;
    }
    case Kind::kVector:
    case Kind::kBlockIndexed: {
      const std::int64_t bpb = L.blocklen * L.child->size;
      const std::int64_t b = rem / bpb;
      const std::int64_t in_block = rem % bpb;
      frame.block = b;
      const std::int64_t start =
          origin + (L.kind == Kind::kVector
                        ? b * L.stride
                        : L.offsets[static_cast<std::size_t>(b)]);
      if (block_atomic(L)) {
        region_consumed_ = in_block;
        stack_.push_back(frame);
        return;
      }
      const std::int64_t e = in_block / L.child->size;
      frame.elem = e;
      stack_.push_back(frame);
      descend_to(L.child.get(), start + e * L.child->extent,
                 in_block % L.child->size);
      return;
    }
    case Kind::kIndexed:
    case Kind::kStruct: {
      // Locate the block containing `rem` via the per-block byte prefix
      // sums (zero-size blocks collapse to duplicate prefix entries and
      // are skipped by taking the last block starting at or before rem).
      const auto& prefix = L.block_bytes_prefix;
      const auto it = std::upper_bound(prefix.begin(), prefix.end(), rem);
      const std::int64_t b = (it - prefix.begin()) - 1;
      const std::int64_t in_block = rem - prefix[static_cast<std::size_t>(b)];
      const auto bi = static_cast<std::size_t>(b);
      const Dataloop* child =
          L.kind == Kind::kStruct ? L.children[bi].get() : L.child.get();
      frame.block = b;
      const std::int64_t start = origin + L.offsets[bi];
      if (packed(*child)) {
        region_consumed_ = in_block;
        stack_.push_back(frame);
        return;
      }
      const std::int64_t e = in_block / child->size;
      frame.elem = e;
      stack_.push_back(frame);
      descend_to(child, start + e * child->extent, in_block % child->size);
      return;
    }
    case Kind::kLeaf:
      return;  // unreachable
  }
}

std::vector<Region> flatten(const DataloopPtr& loop, std::int64_t base,
                            std::int64_t count, bool coalesce) {
  Cursor cursor(loop, base, count);
  std::vector<Region> regions;
  cursor.process(
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::max(),
      [&](std::int64_t off, std::int64_t len) {
        regions.push_back(Region{off, len});
      },
      coalesce);
  return regions;
}

}  // namespace dtio::dl
