// Datatype engine tests: layout algebra for every constructor, pack/unpack
// round-trip properties (parameterized sweeps), chunked-segment equivalence,
// the async pack engine, and the reduction operator table.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <numeric>
#include <random>
#include <vector>

#include "mpx/dtype/datatype.hpp"
#include "mpx/dtype/pack_engine.hpp"
#include "mpx/dtype/reduce_op.hpp"
#include "mpx/dtype/segment.hpp"

using namespace mpx::dtype;
using mpx::base::as_bytes;
using mpx::base::as_writable_bytes;

TEST(Datatype, PrimitiveSizes) {
  EXPECT_EQ(Datatype::byte().size(), 1u);
  EXPECT_EQ(Datatype::int32().size(), 4u);
  EXPECT_EQ(Datatype::int64().size(), 8u);
  EXPECT_EQ(Datatype::float32().size(), 4u);
  EXPECT_EQ(Datatype::float64().size(), 8u);
  EXPECT_TRUE(Datatype::int32().is_contiguous());
  EXPECT_EQ(Datatype::int32().extent(), 4);
}

TEST(Datatype, ContiguousFusesAndCoalesces) {
  auto c = Datatype::contiguous(10, Datatype::int32());
  EXPECT_EQ(c.size(), 40u);
  EXPECT_EQ(c.extent(), 40);
  EXPECT_TRUE(c.is_contiguous());
  EXPECT_EQ(c.iov().size(), 1u);  // adjacent pieces merged
}

TEST(Datatype, VectorLayout) {
  // 3 blocks of 2 int32, stride 4 elements: |xx..|xx..|xx|
  auto v = Datatype::vector(3, 2, 4, Datatype::int32());
  EXPECT_EQ(v.size(), 24u);
  EXPECT_FALSE(v.is_contiguous());
  ASSERT_EQ(v.iov().size(), 3u);
  EXPECT_EQ(v.iov()[0], (Iov{0, 8}));
  EXPECT_EQ(v.iov()[1], (Iov{16, 8}));
  EXPECT_EQ(v.iov()[2], (Iov{32, 8}));
  EXPECT_EQ(v.extent(), 40);  // spans to the end of the last block
}

TEST(Datatype, VectorWithUnitStrideIsContiguous) {
  auto v = Datatype::vector(5, 1, 1, Datatype::float64());
  EXPECT_TRUE(v.is_contiguous());
  EXPECT_EQ(v.size(), 40u);
}

TEST(Datatype, IndexedLayout) {
  const int blocklens[] = {2, 1};
  const int displs[] = {0, 4};
  auto ix = Datatype::indexed(blocklens, displs, Datatype::int32());
  EXPECT_EQ(ix.size(), 12u);
  ASSERT_EQ(ix.iov().size(), 2u);
  EXPECT_EQ(ix.iov()[0], (Iov{0, 8}));
  EXPECT_EQ(ix.iov()[1], (Iov{16, 4}));
  EXPECT_EQ(ix.extent(), 20);
}

TEST(Datatype, HindexedByteDisplacements) {
  const int blocklens[] = {1, 1};
  const std::ptrdiff_t displs[] = {1, 9};
  auto h = Datatype::hindexed(blocklens, displs, Datatype::byte());
  EXPECT_EQ(h.size(), 2u);
  EXPECT_EQ(h.iov()[0].offset, 1);
  EXPECT_EQ(h.iov()[1].offset, 9);
}

TEST(Datatype, StructHeterogeneous) {
  // struct { int32; double; } with natural alignment padding.
  const int blocklens[] = {1, 1};
  const std::ptrdiff_t displs[] = {0, 8};
  const Datatype types[] = {Datatype::int32(), Datatype::float64()};
  auto st = Datatype::structure(blocklens, displs, types);
  EXPECT_EQ(st.size(), 12u);
  EXPECT_EQ(st.extent(), 16);
  EXPECT_FALSE(st.homogeneous());
  EXPECT_FALSE(st.is_contiguous());
}

TEST(Datatype, ResizedOverridesExtent) {
  auto r = Datatype::resized(Datatype::int32(), 16);
  EXPECT_EQ(r.size(), 4u);
  EXPECT_EQ(r.extent(), 16);
  EXPECT_FALSE(r.is_contiguous());
  // 4 elements, stride 16: pack grabs first int of each 16-byte slot.
  std::int32_t buf[16];
  std::iota(buf, buf + 16, 0);
  std::int32_t out[4];
  pack_all(buf, 4, r, as_writable_bytes(out, 4));
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[1], 4);
  EXPECT_EQ(out[2], 8);
  EXPECT_EQ(out[3], 12);
}

TEST(Datatype, NestedVectorOfVector) {
  auto inner = Datatype::vector(2, 1, 2, Datatype::int32());  // x.x
  auto outer = Datatype::contiguous(3, inner);
  EXPECT_EQ(outer.size(), 24u);  // 3 * 2 ints
  EXPECT_EQ(outer.extent(), 3 * inner.extent());
}

TEST(Datatype, InvalidUsageThrows) {
  Datatype invalid;
  EXPECT_FALSE(invalid.valid());
  EXPECT_THROW(invalid.size(), mpx::UsageError);
  EXPECT_THROW(Datatype::contiguous(3, invalid), mpx::UsageError);
  const int lens[] = {1};
  const int displs[] = {0, 1};
  EXPECT_THROW(
      Datatype::indexed(lens, displs, Datatype::int32()),
      mpx::UsageError);
}

// --- property-style round trips across constructors and chunk sizes ---

// All 24 bytes are members, so gtest's byte dump of GetParam() (part of the
// ctest test name) never shows uninitialised padding.
struct RoundTripParam {
  RoundTripParam(int k, std::size_t n, std::size_t c)
      : kind(k), count(n), chunk(c) {}
  int kind;          // 0=contig 1=vector 2=indexed 3=struct-like
  std::int32_t pad = 0;
  std::size_t count;
  std::size_t chunk;  // segment step size in bytes (0 = one shot)
};

class SegmentRoundTrip : public ::testing::TestWithParam<RoundTripParam> {
 protected:
  static Datatype make(int kind) {
    switch (kind) {
      case 0: return Datatype::contiguous(4, Datatype::int32());
      case 1: return Datatype::vector(3, 2, 3, Datatype::int32());
      case 2: {
        static const int lens[] = {1, 3, 2};
        static const int displs[] = {7, 0, 4};
        return Datatype::indexed(lens, displs, Datatype::int32());
      }
      default: {
        static const int lens[] = {2, 1};
        static const std::ptrdiff_t displs[] = {4, 20};
        static const Datatype types[] = {Datatype::int32(),
                                         Datatype::int64()};
        return Datatype::structure(lens, displs, types);
      }
    }
  }
};

TEST_P(SegmentRoundTrip, PackUnpackRestoresTypedData) {
  const auto p = GetParam();
  const Datatype dt = make(p.kind);
  const std::size_t footprint =
      static_cast<std::size_t>(dt.extent()) * p.count + 64;

  std::mt19937 rng(static_cast<unsigned>(p.kind * 1000 + p.count));
  std::vector<std::byte> typed(footprint);
  for (auto& b : typed) b = static_cast<std::byte>(rng() & 0xFF);
  const std::vector<std::byte> original = typed;

  // Pack in chunks.
  std::vector<std::byte> packed(dt.size() * p.count, std::byte{0});
  Segment pack_seg(typed.data(), p.count, dt);
  EXPECT_EQ(pack_seg.packed_size(), packed.size());
  if (p.chunk == 0) {
    EXPECT_EQ(pack_seg.pack(packed), packed.size());
  } else {
    std::size_t off = 0;
    while (off < packed.size()) {
      const std::size_t n = std::min(p.chunk, packed.size() - off);
      EXPECT_EQ(pack_seg.pack({packed.data() + off, n}), n);
      off += n;
    }
  }
  EXPECT_TRUE(pack_seg.done());

  // Clobber the typed region, then unpack in different-size chunks.
  for (auto& b : typed) b = std::byte{0xEE};
  Segment unpack_seg(typed.data(), p.count, dt);
  std::size_t off = 0;
  const std::size_t uchunk = p.chunk == 0 ? packed.size() : p.chunk + 3;
  while (off < packed.size()) {
    const std::size_t n = std::min(uchunk, packed.size() - off);
    EXPECT_EQ(unpack_seg.unpack({packed.data() + off, n}), n);
    off += n;
  }
  EXPECT_TRUE(unpack_seg.done());

  // Property: every byte COVERED by the datatype is restored; bytes outside
  // the type map were clobbered and must remain clobbered.
  std::vector<bool> covered(footprint, false);
  for (std::size_t e = 0; e < p.count; ++e) {
    for (const Iov& piece : dt.iov()) {
      const std::size_t base = e * static_cast<std::size_t>(dt.extent()) +
                               static_cast<std::size_t>(piece.offset);
      for (std::size_t i = 0; i < piece.length; ++i) covered[base + i] = true;
    }
  }
  for (std::size_t i = 0; i < footprint; ++i) {
    if (covered[i]) {
      ASSERT_EQ(typed[i], original[i]) << "byte " << i;
    } else {
      ASSERT_EQ(typed[i], std::byte{0xEE}) << "byte " << i;
    }
  }
}

namespace {

std::string round_trip_name(
    const ::testing::TestParamInfo<RoundTripParam>& info) {
  static const char* const kinds[] = {"contig", "vector", "indexed",
                                      "struct"};
  return std::string(kinds[info.param.kind]) + "_c" +
         std::to_string(info.param.count) + "_k" +
         std::to_string(info.param.chunk);
}

}  // namespace

INSTANTIATE_TEST_SUITE_P(
    Sweep, SegmentRoundTrip,
    ::testing::Values(
        RoundTripParam{0, 1, 0}, RoundTripParam{0, 7, 5},
        RoundTripParam{0, 64, 16}, RoundTripParam{1, 1, 0},
        RoundTripParam{1, 5, 1}, RoundTripParam{1, 33, 7},
        RoundTripParam{2, 1, 0}, RoundTripParam{2, 9, 4},
        RoundTripParam{2, 50, 13}, RoundTripParam{3, 1, 0},
        RoundTripParam{3, 8, 2}, RoundTripParam{3, 25, 11}),
    round_trip_name);

TEST(PackEngine, ChunkedProgressCompletesAndSignals) {
  std::vector<std::int32_t> src(100);
  std::iota(src.begin(), src.end(), 0);
  std::vector<std::byte> out(400);
  auto work = std::make_unique<PackWork>(PackDir::pack, src.data(), 100,
                                         Datatype::int32(), out, 64);
  PackEngine engine;
  int done_calls = 0;
  engine.submit(std::move(work),
                [](void* c) { ++*static_cast<int*>(c); }, &done_calls);
  EXPECT_FALSE(engine.idle());
  int made = 0;
  int rounds = 0;
  while (!engine.idle()) {
    engine.progress(&made);
    ASSERT_LT(++rounds, 100);
  }
  EXPECT_EQ(done_calls, 1);
  EXPECT_EQ(made, 1);
  EXPECT_EQ(rounds, 7);  // ceil(400/64)
  EXPECT_EQ(std::memcmp(out.data(), src.data(), 400), 0);
}

TEST(ReduceOps, AllOpsOnInt32) {
  const std::int32_t in[] = {3, 0, 6, 5};
  auto apply = [&](ReduceOp op, std::initializer_list<std::int32_t> init) {
    std::vector<std::int32_t> io(init);
    reduce_apply(op, in, io.data(), 4, Datatype::int32());
    return io;
  };
  EXPECT_EQ(apply(ReduceOp::sum, {1, 2, 3, 4}),
            (std::vector<std::int32_t>{4, 2, 9, 9}));
  EXPECT_EQ(apply(ReduceOp::prod, {2, 2, 2, 2}),
            (std::vector<std::int32_t>{6, 0, 12, 10}));
  EXPECT_EQ(apply(ReduceOp::min, {4, -1, 9, 5}),
            (std::vector<std::int32_t>{3, -1, 6, 5}));
  EXPECT_EQ(apply(ReduceOp::max, {4, -1, 9, 5}),
            (std::vector<std::int32_t>{4, 0, 9, 5}));
  EXPECT_EQ(apply(ReduceOp::land, {1, 1, 0, 2}),
            (std::vector<std::int32_t>{1, 0, 0, 1}));
  EXPECT_EQ(apply(ReduceOp::lor, {0, 0, 0, 2}),
            (std::vector<std::int32_t>{1, 0, 1, 1}));
  EXPECT_EQ(apply(ReduceOp::band, {2, 7, 7, 4}),
            (std::vector<std::int32_t>{2, 0, 6, 4}));
  EXPECT_EQ(apply(ReduceOp::bor, {4, 1, 1, 2}),
            (std::vector<std::int32_t>{7, 1, 7, 7}));
}

TEST(ReduceOps, FloatArithAndGuards) {
  const double in[] = {1.5, 2.5};
  double io[] = {1.0, 10.0};
  reduce_apply(ReduceOp::sum, in, io, 2, Datatype::float64());
  EXPECT_DOUBLE_EQ(io[0], 2.5);
  EXPECT_DOUBLE_EQ(io[1], 12.5);
  EXPECT_THROW(reduce_apply(ReduceOp::band, in, io, 2, Datatype::float64()),
               mpx::UsageError);
}

TEST(ReduceOps, AllPrimitiveWidths) {
  auto roundtrip = [](auto v0, auto v1, Primitive prim) {
    using T = decltype(v0);
    T in = v0, io = v1;
    reduce_apply(ReduceOp::sum, &in, &io, 1, Datatype::of(prim));
    return io;
  };
  EXPECT_EQ(roundtrip(std::int8_t{3}, std::int8_t{4}, Primitive::int8), 7);
  EXPECT_EQ(roundtrip(std::int16_t{300}, std::int16_t{400}, Primitive::int16),
            700);
  EXPECT_EQ(roundtrip(std::uint32_t{3}, std::uint32_t{4}, Primitive::uint32),
            7u);
  EXPECT_EQ(
      roundtrip(std::uint64_t{1} << 40, std::uint64_t{1}, Primitive::uint64),
      (std::uint64_t{1} << 40) + 1);
  EXPECT_FLOAT_EQ(roundtrip(1.5f, 2.0f, Primitive::float32), 3.5f);
}

TEST(Datatype, Subarray2D) {
  // 4x6 int32 array; 2x3 window at (1,2).
  const int sizes[] = {4, 6};
  const int subsizes[] = {2, 3};
  const int starts[] = {1, 2};
  auto sub = Datatype::subarray(sizes, subsizes, starts, Datatype::int32());
  EXPECT_EQ(sub.size(), 2u * 3u * 4u);
  EXPECT_EQ(sub.extent(), 4 * 6 * 4);
  ASSERT_EQ(sub.iov().size(), 2u);  // one run per window row
  EXPECT_EQ(sub.iov()[0], (Iov{(1 * 6 + 2) * 4, 12}));
  EXPECT_EQ(sub.iov()[1], (Iov{(2 * 6 + 2) * 4, 12}));

  // Pack the window out of a filled array.
  std::int32_t arr[4][6];
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 6; ++j) arr[i][j] = i * 10 + j;
  }
  std::int32_t out[6];
  pack_all(arr, 1, sub, as_writable_bytes(out, 6));
  const std::int32_t expect[] = {12, 13, 14, 22, 23, 24};
  for (int k = 0; k < 6; ++k) EXPECT_EQ(out[k], expect[k]);
}

TEST(Datatype, Subarray3DRoundTrip) {
  const int sizes[] = {3, 4, 5};
  const int subsizes[] = {2, 2, 3};
  const int starts[] = {1, 1, 1};
  auto sub = Datatype::subarray(sizes, subsizes, starts, Datatype::int32());
  EXPECT_EQ(sub.size(), 2u * 2u * 3u * 4u);
  EXPECT_EQ(sub.iov().size(), 4u);  // 2*2 inner runs

  std::vector<std::int32_t> src(3 * 4 * 5);
  std::iota(src.begin(), src.end(), 0);
  std::vector<std::int32_t> packed(12);
  pack_all(src.data(), 1, sub, as_writable_bytes(packed.data(), 12));

  std::vector<std::int32_t> dst(3 * 4 * 5, -1);
  unpack_all(as_bytes(packed.data(), 12), dst.data(), 1, sub);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 4; ++j) {
      for (int k = 0; k < 5; ++k) {
        const std::size_t lin = static_cast<std::size_t>(i * 20 + j * 5 + k);
        const bool inside = i >= 1 && i < 3 && j >= 1 && j < 3 && k >= 1 &&
                            k < 4;
        ASSERT_EQ(dst[lin], inside ? src[lin] : -1) << lin;
      }
    }
  }
}

TEST(Datatype, SubarrayFullWindowIsContiguous) {
  const int sizes[] = {2, 8};
  const int subsizes[] = {2, 8};
  const int starts[] = {0, 0};
  auto sub = Datatype::subarray(sizes, subsizes, starts, Datatype::int32());
  EXPECT_TRUE(sub.is_contiguous());
  EXPECT_EQ(sub.size(), 64u);
}

TEST(Datatype, SubarrayEmptyAndInvalid) {
  const int sizes[] = {4, 4};
  const int zero_sub[] = {0, 4};
  const int starts[] = {0, 0};
  auto empty =
      Datatype::subarray(sizes, zero_sub, starts, Datatype::int32());
  EXPECT_EQ(empty.size(), 0u);

  const int bad_sub[] = {3, 3};
  const int bad_starts[] = {2, 2};  // 2 + 3 > 4
  EXPECT_THROW(
      Datatype::subarray(sizes, bad_sub, bad_starts, Datatype::int32()),
      mpx::UsageError);
}
