#include "mpx/dtype/datatype.hpp"

#include <algorithm>

namespace mpx::dtype {

std::size_t primitive_size(Primitive p) {
  switch (p) {
    case Primitive::byte:
    case Primitive::int8:
    case Primitive::uint8: return 1;
    case Primitive::int16:
    case Primitive::uint16: return 2;
    case Primitive::int32:
    case Primitive::uint32:
    case Primitive::float32: return 4;
    case Primitive::int64:
    case Primitive::uint64:
    case Primitive::float64: return 8;
  }
  return 1;
}

std::string to_string(Primitive p) {
  switch (p) {
    case Primitive::byte: return "byte";
    case Primitive::int8: return "int8";
    case Primitive::int16: return "int16";
    case Primitive::int32: return "int32";
    case Primitive::int64: return "int64";
    case Primitive::uint8: return "uint8";
    case Primitive::uint16: return "uint16";
    case Primitive::uint32: return "uint32";
    case Primitive::uint64: return "uint64";
    case Primitive::float32: return "float32";
    case Primitive::float64: return "float64";
  }
  return "?";
}

namespace {

using detail::TypeRep;

/// Merge adjacent pieces (b starts exactly where a ends) to keep iov small.
void coalesce(std::vector<Iov>& iov) {
  if (iov.empty()) return;
  std::vector<Iov> out;
  out.reserve(iov.size());
  out.push_back(iov.front());
  for (std::size_t i = 1; i < iov.size(); ++i) {
    Iov& last = out.back();
    const Iov& cur = iov[i];
    if (last.offset + static_cast<std::ptrdiff_t>(last.length) == cur.offset) {
      last.length += cur.length;
    } else {
      out.push_back(cur);
    }
  }
  iov = std::move(out);
}

void finalize(TypeRep& r) {
  coalesce(r.iov);
  r.size = 0;
  for (const Iov& v : r.iov) r.size += v.length;
  r.contiguous = r.iov.size() == 1 && r.iov[0].offset == 0 &&
                 static_cast<std::ptrdiff_t>(r.size) == r.extent;
}

/// Append `old`'s pieces shifted by byte displacement `disp`, `count` times
/// advancing by old's extent.
void append_replicated(std::vector<Iov>& iov, const TypeRep& old,
                       std::ptrdiff_t disp, int count) {
  for (int i = 0; i < count; ++i) {
    const std::ptrdiff_t base = disp + i * old.extent;
    for (const Iov& v : old.iov) {
      iov.push_back(Iov{base + v.offset, v.length});
    }
  }
}

std::shared_ptr<const TypeRep> make_rep(TypeRep r) {
  finalize(r);
  return std::make_shared<const TypeRep>(std::move(r));
}

}  // namespace

Datatype Datatype::of(Primitive p) {
  // One immortal rep per primitive (never freed, so no static-destruction
  // order can outlive it). Handles alias it with an empty owner: copying a
  // builtin handle — every receive stores one — touches no shared
  // refcount line.
  static const auto* reps = new auto([] {
    std::vector<std::shared_ptr<const TypeRep>> v;
    for (int i = 0; i <= static_cast<int>(Primitive::float64); ++i) {
      TypeRep r;
      const auto sz = primitive_size(static_cast<Primitive>(i));
      r.iov = {Iov{0, sz}};
      r.extent = static_cast<std::ptrdiff_t>(sz);
      r.leaf = static_cast<Primitive>(i);
      r.homogeneous = true;
      finalize(r);
      v.push_back(std::make_shared<const TypeRep>(std::move(r)));
    }
    return v;
  }());
  return Datatype(std::shared_ptr<const TypeRep>(
      std::shared_ptr<const TypeRep>(),
      (*reps)[static_cast<std::size_t>(p)].get()));
}

Datatype Datatype::contiguous(int count, const Datatype& old) {
  expects(count >= 0 && old.valid(), "Datatype::contiguous: bad arguments");
  TypeRep r;
  const TypeRep& o = *old.rep_;
  append_replicated(r.iov, o, 0, count);
  r.extent = count * o.extent;
  r.leaf = o.leaf;
  r.homogeneous = o.homogeneous;
  return Datatype(make_rep(std::move(r)));
}

Datatype Datatype::vector(int count, int blocklen, int stride,
                          const Datatype& old) {
  expects(count >= 0 && blocklen >= 0 && old.valid(),
          "Datatype::vector: bad arguments");
  TypeRep r;
  const TypeRep& o = *old.rep_;
  for (int b = 0; b < count; ++b) {
    append_replicated(r.iov, o, b * stride * o.extent, blocklen);
  }
  // MPI extent of a vector spans from min to max byte touched (true extent).
  std::ptrdiff_t lo = 0, hi = 0;
  for (const Iov& v : r.iov) {
    lo = std::min(lo, v.offset);
    hi = std::max(hi, v.offset + static_cast<std::ptrdiff_t>(v.length));
  }
  r.extent = hi - lo;
  r.leaf = o.leaf;
  r.homogeneous = o.homogeneous;
  return Datatype(make_rep(std::move(r)));
}

Datatype Datatype::indexed(std::span<const int> blocklens,
                           std::span<const int> displs, const Datatype& old) {
  expects(blocklens.size() == displs.size() && old.valid(),
          "Datatype::indexed: array size mismatch");
  TypeRep r;
  const TypeRep& o = *old.rep_;
  std::ptrdiff_t hi = 0;
  for (std::size_t b = 0; b < blocklens.size(); ++b) {
    append_replicated(r.iov, o, displs[b] * o.extent, blocklens[b]);
    hi = std::max(hi, (displs[b] + blocklens[b]) * o.extent);
  }
  r.extent = hi;
  r.leaf = o.leaf;
  r.homogeneous = o.homogeneous;
  return Datatype(make_rep(std::move(r)));
}

Datatype Datatype::hindexed(std::span<const int> blocklens,
                            std::span<const std::ptrdiff_t> byte_displs,
                            const Datatype& old) {
  expects(blocklens.size() == byte_displs.size() && old.valid(),
          "Datatype::hindexed: array size mismatch");
  TypeRep r;
  const TypeRep& o = *old.rep_;
  std::ptrdiff_t hi = 0;
  for (std::size_t b = 0; b < blocklens.size(); ++b) {
    append_replicated(r.iov, o, byte_displs[b], blocklens[b]);
    hi = std::max(hi, byte_displs[b] + blocklens[b] * o.extent);
  }
  r.extent = hi;
  r.leaf = o.leaf;
  r.homogeneous = o.homogeneous;
  return Datatype(make_rep(std::move(r)));
}

Datatype Datatype::structure(std::span<const int> blocklens,
                             std::span<const std::ptrdiff_t> byte_displs,
                             std::span<const Datatype> types) {
  expects(blocklens.size() == byte_displs.size() &&
              blocklens.size() == types.size(),
          "Datatype::structure: array size mismatch");
  TypeRep r;
  std::ptrdiff_t hi = 0;
  r.homogeneous = true;
  bool first = true;
  for (std::size_t b = 0; b < blocklens.size(); ++b) {
    expects(types[b].valid(), "Datatype::structure: invalid member type");
    const TypeRep& o = *types[b].rep_;
    append_replicated(r.iov, o, byte_displs[b], blocklens[b]);
    hi = std::max(hi, byte_displs[b] + blocklens[b] * o.extent);
    if (first) {
      r.leaf = o.leaf;
      first = false;
    } else if (r.leaf != o.leaf) {
      r.homogeneous = false;
    }
    r.homogeneous = r.homogeneous && o.homogeneous;
  }
  r.extent = hi;
  return Datatype(make_rep(std::move(r)));
}

Datatype Datatype::subarray(std::span<const int> sizes,
                            std::span<const int> subsizes,
                            std::span<const int> starts,
                            const Datatype& old) {
  const std::size_t nd = sizes.size();
  expects(nd >= 1 && subsizes.size() == nd && starts.size() == nd &&
              old.valid(),
          "Datatype::subarray: dimension mismatch");
  std::ptrdiff_t total = 1;
  for (std::size_t d = 0; d < nd; ++d) {
    expects(subsizes[d] >= 0 && starts[d] >= 0 &&
                starts[d] + subsizes[d] <= sizes[d],
            "Datatype::subarray: window out of bounds");
    total *= sizes[d];
  }
  const TypeRep& o = *old.rep_;

  // Byte stride of each dimension (C order: last dimension is contiguous).
  std::vector<std::ptrdiff_t> stride(nd);
  stride[nd - 1] = o.extent;
  for (std::size_t d = nd - 1; d > 0; --d) {
    stride[d - 1] = stride[d] * sizes[d];
  }

  TypeRep r;
  // Walk every index combination of the outer dimensions; the innermost
  // run of subsizes[nd-1] old-elements is appended contiguously.
  bool empty_window = false;
  for (std::size_t d = 0; d < nd; ++d) empty_window |= subsizes[d] == 0;

  std::vector<int> idx(nd, 0);
  for (; !empty_window;) {
    std::ptrdiff_t off = 0;
    for (std::size_t d = 0; d + 1 < nd; ++d) {
      off += (starts[d] + idx[d]) * stride[d];
    }
    off += starts[nd - 1] * stride[nd - 1];
    append_replicated(r.iov, o, off, subsizes[nd - 1]);

    // Odometer over the outer dimensions (rightmost varies fastest).
    bool wrapped_all = true;
    for (std::size_t d = nd - 1; d-- > 0;) {
      if (++idx[d] < subsizes[d]) {
        wrapped_all = false;
        break;
      }
      idx[d] = 0;
    }
    if (wrapped_all) break;
  }
  r.extent = total * o.extent;
  r.leaf = o.leaf;
  r.homogeneous = o.homogeneous;
  return Datatype(make_rep(std::move(r)));
}

Datatype Datatype::resized(const Datatype& old, std::ptrdiff_t new_extent) {
  expects(old.valid() && new_extent >= 0, "Datatype::resized: bad arguments");
  TypeRep r = *old.rep_;
  r.extent = new_extent;
  finalize(r);
  return Datatype(std::make_shared<const TypeRep>(std::move(r)));
}

}  // namespace mpx::dtype
