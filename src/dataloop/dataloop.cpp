#include "dataloop/dataloop.h"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>

namespace dtio::dl {

std::string_view kind_name(Kind kind) noexcept {
  switch (kind) {
    case Kind::kLeaf:
      return "leaf";
    case Kind::kContig:
      return "contig";
    case Kind::kVector:
      return "vector";
    case Kind::kBlockIndexed:
      return "blockindexed";
    case Kind::kIndexed:
      return "indexed";
    case Kind::kStruct:
      return "struct";
  }
  return "?";
}

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("dataloop: " + what);
}

void require(bool ok, const char* what) {
  if (!ok) fail(what);
}

/// One child instance is a gapless run exactly filling its extent, so
/// consecutive instances tile into a larger contiguous run.
bool packed(const Dataloop& loop) noexcept {
  return loop.solid && loop.extent == loop.size;
}

// Checked size/extent/span arithmetic. Builders run on decoded wire input,
// so a hostile descriptor must fail as invalid_argument, not overflow.
std::int64_t add(std::int64_t a, std::int64_t b) {
  std::int64_t r = 0;
  if (__builtin_add_overflow(a, b, &r)) fail("size arithmetic overflows");
  return r;
}

std::int64_t sub(std::int64_t a, std::int64_t b) {
  std::int64_t r = 0;
  if (__builtin_sub_overflow(a, b, &r)) fail("size arithmetic overflows");
  return r;
}

std::int64_t mul(std::int64_t a, std::int64_t b) {
  std::int64_t r = 0;
  if (__builtin_mul_overflow(a, b, &r)) fail("size arithmetic overflows");
  return r;
}

}  // namespace

std::int64_t Dataloop::node_count() const noexcept {
  std::int64_t n = 1;
  if (child) n += child->node_count();
  for (const auto& c : children) n += c->node_count();
  return n;
}

int Dataloop::depth() const noexcept {
  int d = 0;
  if (child) d = child->depth();
  for (const auto& c : children) d = std::max(d, c->depth());
  return d + 1;
}

std::int64_t Dataloop::region_count() const noexcept { return regions; }

namespace {

void render(const Dataloop& loop, std::ostringstream& out, int indent) {
  for (int i = 0; i < indent; ++i) out << "  ";
  out << kind_name(loop.kind) << "(count=" << loop.count;
  if (loop.kind == Kind::kLeaf) out << ", el_size=" << loop.el_size;
  if (loop.kind == Kind::kVector || loop.kind == Kind::kBlockIndexed) {
    out << ", blocklen=" << loop.blocklen;
  }
  if (loop.kind == Kind::kVector) out << ", stride=" << loop.stride;
  out << ", size=" << loop.size << ", extent=" << loop.extent
      << ", lb=" << loop.lb << (loop.solid ? ", solid" : "") << ")\n";
  if (loop.child) render(*loop.child, out, indent + 1);
  for (const auto& c : loop.children) render(*c, out, indent + 1);
}

}  // namespace

std::string Dataloop::to_string() const {
  std::ostringstream out;
  render(*this, out, 0);
  return out.str();
}

DataloopPtr make_leaf(std::int64_t el_size) {
  require(el_size > 0, "leaf element size must be positive");
  auto loop = std::make_shared<Dataloop>();
  loop->kind = Kind::kLeaf;
  loop->count = 1;
  loop->el_size = el_size;
  loop->size = el_size;
  loop->extent = el_size;
  loop->lb = 0;
  loop->data_lb = 0;
  loop->data_ub = el_size;
  loop->solid = true;
  loop->regions = 1;
  return loop;
}

DataloopPtr make_contig(std::int64_t count, DataloopPtr child) {
  require(count >= 0, "contig count must be >= 0");
  require(child != nullptr, "contig child must not be null");
  require(child->extent >= 0, "contig child extent must be >= 0");

  // contig(1, X) adds nothing: the derived fields match X exactly.
  if (count == 1) return child;

  // contig of contig collapses: spacing inside and outside both equal the
  // grandchild extent, so a single loop with the product count suffices.
  // Only valid when the inner contig was not resized: its extent/lb must
  // still be the natural count * grandchild-extent tiling.
  if (count > 0 && child->kind == Kind::kContig &&
      child->extent == child->count * child->child->extent &&
      child->lb == (child->count == 0 ? 0 : child->child->lb)) {
    return make_contig(mul(count, child->count), child->child);
  }

  auto loop = std::make_shared<Dataloop>();
  loop->kind = Kind::kContig;
  loop->count = count;
  loop->size = mul(count, child->size);
  loop->extent = mul(count, child->extent);
  loop->lb = count == 0 ? 0 : child->lb;
  loop->data_lb = count == 0 ? 0 : child->data_lb;
  loop->data_ub = loop->size == 0
                      ? loop->data_lb
                      : add(mul(count - 1, child->extent), child->data_ub);
  loop->solid = count == 0 || packed(*child) ||
                (count == 1 && child->solid);
  loop->regions =
      loop->size == 0 ? 0 : (loop->solid ? 1 : mul(count, child->regions));
  loop->child = std::move(child);
  return loop;
}

DataloopPtr make_vector(std::int64_t count, std::int64_t blocklen,
                        std::int64_t stride_bytes, DataloopPtr child) {
  require(count >= 0, "vector count must be >= 0");
  require(blocklen >= 0, "vector blocklen must be >= 0");
  require(child != nullptr, "vector child must not be null");

  // Degenerate shapes reduce to contig.
  if (count == 0 || blocklen == 0) return make_contig(0, std::move(child));
  if (count == 1) return make_contig(blocklen, std::move(child));
  if (stride_bytes == mul(blocklen, child->extent)) {
    // Blocks tile seamlessly: the whole vector is one contiguous sequence
    // of child instances.
    return make_contig(mul(count, blocklen), std::move(child));
  }

  auto loop = std::make_shared<Dataloop>();
  loop->kind = Kind::kVector;
  loop->count = count;
  loop->blocklen = blocklen;
  loop->stride = stride_bytes;
  loop->size = mul(mul(count, blocklen), child->size);
  const std::int64_t block_extent = mul(blocklen, child->extent);
  const std::int64_t last = mul(count - 1, stride_bytes);
  loop->lb = add(child->lb, std::min<std::int64_t>(0, last));
  loop->data_lb = add(child->data_lb, std::min<std::int64_t>(0, last));
  loop->data_ub =
      loop->size == 0
          ? loop->data_lb
          : add(add(std::max<std::int64_t>(0, last),
                    mul(blocklen - 1, child->extent)),
                child->data_ub);
  loop->extent = sub(add(std::max<std::int64_t>(0, last), block_extent),
                     std::min<std::int64_t>(0, last));
  loop->solid = false;  // seamless tiling was normalised to contig above
  loop->regions =
      loop->size == 0
          ? 0
          : mul(count, packed(*child) ? 1 : mul(blocklen, child->regions));
  loop->child = std::move(child);
  return loop;
}

DataloopPtr make_blockindexed(std::int64_t count, std::int64_t blocklen,
                              std::span<const std::int64_t> offsets_bytes,
                              DataloopPtr child) {
  require(count >= 0, "blockindexed count must be >= 0");
  require(blocklen >= 0, "blockindexed blocklen must be >= 0");
  require(child != nullptr, "blockindexed child must not be null");
  require(static_cast<std::int64_t>(offsets_bytes.size()) == count,
          "blockindexed offsets length must equal count");

  if (count == 0 || blocklen == 0) return make_contig(0, std::move(child));

  // Uniformly strided offsets are a vector (anchored at zero) — the classic
  // regularity recovery. Offsets with a nonzero anchor stay blockindexed.
  if (count >= 2) {
    // With offsets[0] == 0 the step is offsets[1] itself; an offset that
    // i * step cannot reach without overflow breaks uniformity.
    const std::int64_t step = offsets_bytes[1];
    bool uniform = offsets_bytes[0] == 0;
    for (std::int64_t i = 1; uniform && i < count; ++i) {
      std::int64_t want = 0;
      uniform = !__builtin_mul_overflow(i, step, &want) &&
                offsets_bytes[static_cast<std::size_t>(i)] == want;
    }
    if (uniform) {
      return make_vector(count, blocklen, step, std::move(child));
    }
  } else {  // count == 1
    if (offsets_bytes[0] == 0) return make_contig(blocklen, std::move(child));
  }

  auto loop = std::make_shared<Dataloop>();
  loop->kind = Kind::kBlockIndexed;
  loop->count = count;
  loop->blocklen = blocklen;
  loop->offsets.assign(offsets_bytes.begin(), offsets_bytes.end());
  loop->size = mul(mul(count, blocklen), child->size);
  const std::int64_t block_extent = mul(blocklen, child->extent);
  std::int64_t lo = offsets_bytes[0];
  std::int64_t hi = offsets_bytes[0];
  for (const std::int64_t off : offsets_bytes) {
    lo = std::min(lo, off);
    hi = std::max(hi, off);
  }
  loop->lb = add(lo, child->lb);
  loop->data_lb = add(lo, child->data_lb);
  loop->data_ub =
      loop->size == 0
          ? loop->data_lb
          : add(add(hi, mul(blocklen - 1, child->extent)), child->data_ub);
  loop->extent = sub(add(add(hi, block_extent), child->lb), loop->lb);
  loop->solid = count == 1 && child->solid && blocklen == 1;
  loop->regions =
      loop->size == 0
          ? 0
          : (loop->solid ? 1
                         : mul(count, packed(*child)
                                          ? 1
                                          : mul(blocklen, child->regions)));
  loop->child = std::move(child);
  return loop;
}

DataloopPtr make_indexed(std::span<const std::int64_t> blocklens,
                         std::span<const std::int64_t> offsets_bytes,
                         DataloopPtr child) {
  require(child != nullptr, "indexed child must not be null");
  require(blocklens.size() == offsets_bytes.size(),
          "indexed blocklens/offsets length mismatch");
  for (const std::int64_t bl : blocklens) {
    require(bl >= 0, "indexed blocklens must be >= 0");
  }
  const auto count = static_cast<std::int64_t>(blocklens.size());

  if (count == 0) return make_contig(0, std::move(child));

  // Uniform block lengths reduce to blockindexed (which may in turn reduce
  // to vector/contig).
  const bool uniform = std::all_of(
      blocklens.begin(), blocklens.end(),
      [&](std::int64_t bl) { return bl == blocklens[0]; });
  if (uniform) {
    return make_blockindexed(count, blocklens[0], offsets_bytes,
                             std::move(child));
  }

  auto loop = std::make_shared<Dataloop>();
  loop->kind = Kind::kIndexed;
  loop->count = count;
  loop->blocklens.assign(blocklens.begin(), blocklens.end());
  loop->offsets.assign(offsets_bytes.begin(), offsets_bytes.end());

  std::int64_t size = 0;
  bool first = true;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  std::int64_t data_hi = 0;
  std::int64_t regions = 0;
  loop->block_bytes_prefix.reserve(static_cast<std::size_t>(count) + 1);
  loop->block_bytes_prefix.push_back(0);
  for (std::int64_t b = 0; b < count; ++b) {
    const auto bi = static_cast<std::size_t>(b);
    const std::int64_t bl = blocklens[bi];
    size = add(size, mul(bl, child->size));
    loop->block_bytes_prefix.push_back(size);
    if (bl == 0) continue;
    regions = add(regions, packed(*child) ? 1 : mul(bl, child->regions));
    const std::int64_t begin = add(offsets_bytes[bi], child->lb);
    const std::int64_t end =
        add(add(offsets_bytes[bi], mul(bl, child->extent)), child->lb);
    const std::int64_t data_end = add(
        add(offsets_bytes[bi], mul(bl - 1, child->extent)), child->data_ub);
    if (first) {
      lo = begin;
      hi = end;
      data_hi = data_end;
      first = false;
    } else {
      lo = std::min(lo, begin);
      hi = std::max(hi, end);
      data_hi = std::max(data_hi, data_end);
    }
  }
  loop->size = size;
  loop->lb = lo;
  loop->data_lb = add(sub(lo, child->lb), child->data_lb);
  loop->data_ub = size == 0 ? loop->data_lb : data_hi;
  loop->extent = sub(hi, lo);
  loop->solid = false;
  loop->regions = size == 0 ? 0 : regions;
  loop->child = std::move(child);
  return loop;
}

DataloopPtr make_struct(std::span<const std::int64_t> blocklens,
                        std::span<const std::int64_t> offsets_bytes,
                        std::span<const DataloopPtr> children) {
  require(blocklens.size() == offsets_bytes.size() &&
              blocklens.size() == children.size(),
          "struct blocklens/offsets/children length mismatch");
  for (const auto& c : children) {
    require(c != nullptr, "struct children must not be null");
  }
  for (const std::int64_t bl : blocklens) {
    require(bl >= 0, "struct blocklens must be >= 0");
  }
  const auto count = static_cast<std::int64_t>(blocklens.size());

  // A homogeneous struct is an indexed type.
  if (count > 0) {
    const bool homogeneous =
        std::all_of(children.begin(), children.end(),
                    [&](const DataloopPtr& c) { return c == children[0]; });
    if (homogeneous) {
      return make_indexed(blocklens, offsets_bytes, children[0]);
    }
  }

  auto loop = std::make_shared<Dataloop>();
  loop->kind = Kind::kStruct;
  loop->count = count;
  loop->blocklens.assign(blocklens.begin(), blocklens.end());
  loop->offsets.assign(offsets_bytes.begin(), offsets_bytes.end());
  loop->children.assign(children.begin(), children.end());

  std::int64_t size = 0;
  bool first = true;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  std::int64_t data_lo = 0;
  std::int64_t data_hi = 0;
  std::int64_t regions = 0;
  loop->block_bytes_prefix.reserve(static_cast<std::size_t>(count) + 1);
  loop->block_bytes_prefix.push_back(0);
  for (std::int64_t b = 0; b < count; ++b) {
    const auto bi = static_cast<std::size_t>(b);
    const Dataloop& c = *children[bi];
    const std::int64_t bl = blocklens[bi];
    size = add(size, mul(bl, c.size));
    loop->block_bytes_prefix.push_back(size);
    if (bl == 0 || c.size == 0) continue;
    regions = add(regions, packed(c) ? 1 : mul(bl, c.regions));
    const std::int64_t begin = add(offsets_bytes[bi], c.lb);
    const std::int64_t end = add(add(offsets_bytes[bi], mul(bl, c.extent)), c.lb);
    const std::int64_t data_begin = add(offsets_bytes[bi], c.data_lb);
    const std::int64_t data_end =
        add(add(offsets_bytes[bi], mul(bl - 1, c.extent)), c.data_ub);
    if (first) {
      lo = begin;
      hi = end;
      data_lo = data_begin;
      data_hi = data_end;
      first = false;
    } else {
      lo = std::min(lo, begin);
      hi = std::max(hi, end);
      data_lo = std::min(data_lo, data_begin);
      data_hi = std::max(data_hi, data_end);
    }
  }
  loop->size = size;
  loop->lb = lo;
  loop->data_lb = data_lo;
  loop->data_ub = size == 0 ? data_lo : data_hi;
  loop->extent = sub(hi, lo);
  loop->solid = false;
  loop->regions = size == 0 ? 0 : regions;
  return loop;
}

DataloopPtr make_resized(DataloopPtr loop, std::int64_t lb,
                         std::int64_t extent) {
  require(loop != nullptr, "resized loop must not be null");
  require(extent >= 0, "resized extent must be >= 0");
  if (lb == loop->lb && extent == loop->extent) return loop;
  auto resized = std::make_shared<Dataloop>(*loop);
  resized->lb = lb;
  resized->extent = extent;
  // A solid run exactly filling the old extent may now leave gaps between
  // instances; solidity of a single instance is unchanged.
  return resized;
}

}  // namespace dtio::dl
