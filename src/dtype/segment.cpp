#include "mpx/dtype/segment.hpp"

#include <algorithm>
#include <cstring>

namespace mpx::dtype {

Segment::Segment(void* buf, std::size_t count, Datatype dt)
    : buf_(static_cast<std::byte*>(buf)), count_(count), dt_(std::move(dt)) {
  expects(dt_.valid(), "Segment: invalid datatype");
  packed_size_ = count_ * dt_.size();
}

template <class MoveFn>
std::size_t Segment::walk(std::size_t n, MoveFn&& move) {
  const auto iov = dt_.iov();
  const std::ptrdiff_t extent = dt_.extent();
  std::size_t moved = 0;
  while (moved < n && pos_ < packed_size_) {
    const Iov& piece = iov[piece_];
    std::byte* typed =
        buf_ + static_cast<std::ptrdiff_t>(elem_) * extent + piece.offset +
        static_cast<std::ptrdiff_t>(piece_off_);
    const std::size_t avail = piece.length - piece_off_;
    const std::size_t len = std::min(avail, n - moved);
    move(typed, len);
    moved += len;
    pos_ += len;
    piece_off_ += len;
    if (piece_off_ == piece.length) {
      piece_off_ = 0;
      if (++piece_ == iov.size()) {
        piece_ = 0;
        ++elem_;
      }
    }
  }
  return moved;
}

std::size_t Segment::pack(base::ByteSpan out) {
  std::size_t produced = 0;
  return walk(out.size(), [&](std::byte* typed, std::size_t len) {
    std::memcpy(out.data() + produced, typed, len);
    produced += len;
  });
}

std::size_t Segment::unpack(base::ConstByteSpan in) {
  std::size_t consumed = 0;
  return walk(in.size(), [&](std::byte* typed, std::size_t len) {
    std::memcpy(typed, in.data() + consumed, len);
    consumed += len;
  });
}

std::size_t pack_all(const void* src, std::size_t count, const Datatype& dt,
                     base::ByteSpan out) {
  Segment seg(const_cast<void*>(src), count, dt);
  expects(out.size() >= seg.packed_size(), "pack_all: output too small");
  return seg.pack(out);
}

std::size_t unpack_all(base::ConstByteSpan in, void* dst, std::size_t count,
                       const Datatype& dt) {
  Segment seg(dst, count, dt);
  return seg.unpack(in);
}

}  // namespace mpx::dtype
