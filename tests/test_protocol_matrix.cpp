// Systematic protocol matrix: {transport} x {message-size regime} x
// {isend/issend/persistent} x {contiguous/strided datatype}, one
// parameterized correctness check per cell. This is the exhaustive sweep
// over every send-side state machine the runtime implements.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "test_util.hpp"

using namespace mpx;

namespace {

enum class SizeRegime : int { tiny = 0, eager = 1, rndv = 2, pipeline = 3 };
enum class SendKind : int { isend = 0, issend = 1, persistent = 2 };

// The explicit tail keeps gtest's byte dump of GetParam() (part of the ctest
// test name) free of uninitialised padding.
struct MatrixParam {
  int ranks_per_node;  // 0 = shm path, 1 = net path
  SizeRegime regime;
  SendKind kind;
  bool strided;
  unsigned char pad[3] = {};
};

std::size_t elems_for(SizeRegime r) {
  // Element counts (int32) placed firmly inside each regime given the
  // config below.
  switch (r) {
    case SizeRegime::tiny: return 16;          // < lightweight / shm eager
    case SizeRegime::eager: return 1024;       // eager with injection wait
    case SizeRegime::rndv: return 16 * 1024;   // rendezvous
    case SizeRegime::pipeline: return 128 * 1024;  // chunked pipeline
  }
  return 1;
}

std::string matrix_name(const ::testing::TestParamInfo<MatrixParam>& info) {
  const auto& p = info.param;
  static const char* const regimes[] = {"tiny", "eager", "rndv", "pipeline"};
  static const char* const kinds[] = {"isend", "issend", "persistent"};
  return std::string(p.ranks_per_node == 0 ? "shm" : "net") + "_" +
         regimes[static_cast<int>(p.regime)] + "_" +
         kinds[static_cast<int>(p.kind)] + (p.strided ? "_strided" : "_flat");
}

}  // namespace

class ProtocolMatrix : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(ProtocolMatrix, PayloadDeliveredIntact) {
  const auto p = GetParam();
  WorldConfig cfg;
  cfg.nranks = 2;
  cfg.ranks_per_node = p.ranks_per_node;
  cfg.shm_eager_max = 16 * 1024;
  cfg.net_lightweight_max = 256;
  cfg.net_eager_max = 16 * 1024;
  cfg.net_pipeline_min = 256 * 1024;
  cfg.net_pipeline_chunk = 64 * 1024;
  auto w = World::create(cfg);

  const std::size_t n = elems_for(p.regime);
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    auto flat = dtype::Datatype::int32();
    auto strided = dtype::Datatype::vector(static_cast<int>(n), 1, 2, flat);

    if (rank == 0) {
      // Source data: iota, strided through a 2n array when requested.
      std::vector<std::int32_t> src(p.strided ? 2 * n : n, -1);
      for (std::size_t i = 0; i < n; ++i) {
        src[p.strided ? 2 * i : i] = static_cast<std::int32_t>(i);
      }
      const void* buf = src.data();
      Request req;
      switch (p.kind) {
        case SendKind::isend:
          req = p.strided ? c.isend(buf, 1, strided, 1, 0)
                          : c.isend(buf, n, flat, 1, 0);
          break;
        case SendKind::issend:
          req = p.strided ? c.issend(buf, 1, strided, 1, 0)
                          : c.issend(buf, n, flat, 1, 0);
          break;
        case SendKind::persistent:
          req = p.strided ? c.send_init(buf, 1, strided, 1, 0)
                          : c.send_init(buf, n, flat, 1, 0);
          start(req);
          break;
      }
      wait_on_stream(req, c.stream());
    } else {
      std::vector<std::int32_t> dst(n, -1);
      Status st = c.recv(dst.data(), n, flat, 0, 0);
      EXPECT_EQ(st.error, Err::success);
      EXPECT_EQ(st.count_bytes, n * 4);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(dst[i], static_cast<std::int32_t>(i)) << i;
      }
    }
    w->finalize_rank(rank);
  });
}

namespace {

std::vector<MatrixParam> matrix_params() {
  std::vector<MatrixParam> out;
  for (int rpn : {0, 1}) {
    for (int regime = 0; regime < 4; ++regime) {
      for (int kind = 0; kind < 3; ++kind) {
        for (bool strided : {false, true}) {
          out.push_back(MatrixParam{rpn, static_cast<SizeRegime>(regime),
                                    static_cast<SendKind>(kind), strided});
        }
      }
    }
  }
  return out;
}

}  // namespace

INSTANTIATE_TEST_SUITE_P(AllCells, ProtocolMatrix,
                         ::testing::ValuesIn(matrix_params()), matrix_name);

TEST(SubarrayHalo, TwoDimensionalGhostExchange) {
  // 2-D halo exchange using subarray datatypes on both sides: each rank
  // owns an 8x8 tile with a 1-cell ghost ring (10x10 storage) and exchanges
  // its edge COLUMNS (non-contiguous!) with its horizontal neighbors.
  auto w = World::create(WorldConfig{.nranks = 2});
  constexpr int N = 8, S = N + 2;
  const int sizes[] = {S, S};
  const int col_sub[] = {N, 1};
  // Send column: own first/last interior column; recv into ghost column.
  const int send_left[] = {1, 1};
  const int send_right[] = {1, N};
  const int recv_left[] = {1, 0};
  const int recv_right[] = {1, N + 1};
  auto dt = dtype::Datatype::float64();
  auto t_send_l = dtype::Datatype::subarray(sizes, col_sub, send_left, dt);
  auto t_send_r = dtype::Datatype::subarray(sizes, col_sub, send_right, dt);
  auto t_recv_l = dtype::Datatype::subarray(sizes, col_sub, recv_left, dt);
  auto t_recv_r = dtype::Datatype::subarray(sizes, col_sub, recv_right, dt);

  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    const int peer = 1 - rank;
    std::vector<double> tile(S * S, -1.0);
    for (int i = 1; i <= N; ++i) {
      for (int j = 1; j <= N; ++j) {
        tile[static_cast<std::size_t>(i * S + j)] = rank * 100.0 + i * 10 + j;
      }
    }
    // Periodic in x: my right edge goes to the peer's left ghost and
    // vice versa.
    std::vector<Request> reqs;
    reqs.push_back(c.irecv(tile.data(), 1, t_recv_l, peer, 0));
    reqs.push_back(c.irecv(tile.data(), 1, t_recv_r, peer, 1));
    reqs.push_back(c.isend(tile.data(), 1, t_send_r, peer, 0));
    reqs.push_back(c.isend(tile.data(), 1, t_send_l, peer, 1));
    wait_all(reqs);

    for (int i = 1; i <= N; ++i) {
      // Left ghost column == peer's right interior column.
      ASSERT_EQ(tile[static_cast<std::size_t>(i * S)],
                peer * 100.0 + i * 10 + N);
      // Right ghost column == peer's left interior column.
      ASSERT_EQ(tile[static_cast<std::size_t>(i * S + N + 1)],
                peer * 100.0 + i * 10 + 1);
    }
    w->finalize_rank(rank);
  });
}
