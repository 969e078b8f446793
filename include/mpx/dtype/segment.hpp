// mpx/dtype/segment.hpp
//
// Pack/unpack cursor over (buffer, count, datatype). A Segment walks the
// flattened iov representation and moves bytes between the (possibly
// non-contiguous) typed buffer and a contiguous packed stream. It supports
// incremental operation so the async pack engine can move data in chunks
// across progress polls.
#pragma once

#include <cstddef>

#include "mpx/base/buffer.hpp"
#include "mpx/dtype/datatype.hpp"

namespace mpx::dtype {

/// Incremental pack/unpack cursor. Not thread-safe; owned by one VCI.
class Segment {
 public:
  /// View `count` elements of type `dt` at `buf`. The buffer must outlive
  /// the segment. The same segment can pack (typed -> packed) or unpack
  /// (packed -> typed); direction is chosen per call.
  Segment(void* buf, std::size_t count, Datatype dt);

  /// Total packed size in bytes of the whole segment.
  std::size_t packed_size() const { return packed_size_; }

  /// Bytes processed so far (cursor position in the packed stream).
  std::size_t position() const { return pos_; }
  bool done() const { return pos_ == packed_size_; }

  /// Copy up to out.size() packed bytes starting at the cursor into `out`;
  /// advances the cursor. Returns bytes produced (< out.size() only at end).
  std::size_t pack(base::ByteSpan out);

  /// Consume packed bytes from `in` into the typed buffer at the cursor;
  /// advances the cursor. Returns bytes consumed.
  std::size_t unpack(base::ConstByteSpan in);

 private:
  // Advance the iov walk by `n` packed bytes, invoking move(dst_typed_ptr,
  // len) for each contiguous typed piece touched.
  template <class MoveFn>
  std::size_t walk(std::size_t n, MoveFn&& move);

  std::byte* buf_ = nullptr;
  std::size_t count_ = 0;
  Datatype dt_;
  std::size_t packed_size_ = 0;

  // Cursor state: element index, iov piece index, byte offset inside piece.
  std::size_t pos_ = 0;
  std::size_t elem_ = 0;
  std::size_t piece_ = 0;
  std::size_t piece_off_ = 0;
};

/// Convenience one-shot helpers.
///
/// Pack `count` elements of `dt` at `src` into `out` (must be large enough).
/// Returns packed byte count.
std::size_t pack_all(const void* src, std::size_t count, const Datatype& dt,
                     base::ByteSpan out);

/// Unpack `in` into `count` elements of `dt` at `dst`. Returns bytes used.
std::size_t unpack_all(base::ConstByteSpan in, void* dst, std::size_t count,
                       const Datatype& dt);

}  // namespace mpx::dtype
