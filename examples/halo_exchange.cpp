// halo_exchange — an application-shaped demo: 1-D Jacobi iteration with
// halo exchange, combining several of the paper's pieces:
//
//   * persistent send/recv for the halo pattern (send_init/recv_init +
//     start_all each iteration),
//   * a stream communicator so halo traffic lives on its own VCI,
//   * a stream-scoped progress helper thread (§5.1) so the rendezvous-sized
//     halos advance while the rank computes its interior, and
//   * is_complete-based waits that never invoke redundant progress.
//
// Build & run:  ./examples/halo_exchange [nranks] [cells_per_rank] [iters]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "mpx/base/thread.hpp"
#include "mpx/coll/coll.hpp"
#include "mpx/mpx.hpp"
#include "mpx/task/progress_thread.hpp"

namespace {

void rank_body(mpx::World& world, int rank, int cells, int iters,
               double* final_residual) {
  mpx::Comm cw = world.comm_world(rank);
  // Dedicated stream for this rank's halo traffic.
  mpx::Stream stream = world.stream_create(rank);
  mpx::Comm comm = cw.with_stream(stream);
  const int size = comm.size();
  const int left = (rank - 1 + size) % size;
  const int right = (rank + 1) % size;

  // Local field with one ghost cell on each side.
  std::vector<double> u(static_cast<std::size_t>(cells) + 2, 0.0);
  std::vector<double> next(u.size(), 0.0);
  for (int i = 1; i <= cells; ++i) {
    u[static_cast<std::size_t>(i)] = rank * 1000.0 + i;
  }

  auto dt = mpx::dtype::Datatype::float64();
  std::vector<mpx::Request> halo;
  halo.push_back(comm.recv_init(&u[0], 1, dt, left, 0));
  halo.push_back(comm.recv_init(&u[static_cast<std::size_t>(cells) + 1], 1,
                                dt, right, 1));
  halo.push_back(comm.send_init(&u[static_cast<std::size_t>(cells)], 1, dt,
                                right, 0));
  halo.push_back(comm.send_init(&u[1], 1, dt, left, 1));

  // Background progress for the halo stream while we compute. Empty polls
  // back off through the WorldConfig::wait_* spin/yield/sleep ladder.
  mpx::task::ProgressThread helper(stream);

  double residual = 0.0;
  for (int it = 0; it < iters; ++it) {
    start_all(halo);

    // Interior update overlaps with the halo exchange.
    for (int i = 2; i < cells; ++i) {
      next[static_cast<std::size_t>(i)] =
          0.5 * (u[static_cast<std::size_t>(i) - 1] +
                 u[static_cast<std::size_t>(i) + 1]);
    }
    // Boundary cells need the ghosts: is_complete queries only, the helper
    // thread supplies the progress.
    for (mpx::Request& r : halo) {
      // Query-only wait: the helper thread supplies the progress. Yield so
      // the single-core container can schedule it promptly.
      while (!r.is_complete()) std::this_thread::yield();
    }
    next[1] = 0.5 * (u[0] + u[2]);
    next[static_cast<std::size_t>(cells)] =
        0.5 * (u[static_cast<std::size_t>(cells) - 1] +
               u[static_cast<std::size_t>(cells) + 1]);

    residual = 0.0;
    for (int i = 1; i <= cells; ++i) {
      residual += std::abs(next[static_cast<std::size_t>(i)] -
                           u[static_cast<std::size_t>(i)]);
    }
    std::swap(u, next);
    // Iterations stay in lock-step (persistent halos reuse tags).
    mpx::coll::barrier(comm);
  }

  double global_residual = 0.0;
  mpx::coll::allreduce(&residual, &global_residual, 1, dt,
                       mpx::dtype::ReduceOp::sum, comm);
  if (rank == 0) *final_residual = global_residual;

  helper.stop();
  world.finalize_rank(rank);
}

}  // namespace

int main(int argc, char** argv) {
  const int nranks = argc > 1 ? std::atoi(argv[1]) : 4;
  const int cells = argc > 2 ? std::atoi(argv[2]) : 1000;
  const int iters = argc > 3 ? std::atoi(argv[3]) : 20;

  mpx::WorldConfig cfg;
  cfg.nranks = nranks;
  cfg.max_vcis = nranks + 2;
  auto world = mpx::World::create(cfg);

  double residual = -1.0;
  {
    std::vector<mpx::base::ScopedThread> threads;
    for (int r = 0; r < nranks; ++r) {
      threads.emplace_back(
          [&, r] { rank_body(*world, r, cells, iters, &residual); });
    }
  }
  std::printf(
      "jacobi halo exchange: %d ranks x %d cells, %d iterations\n"
      "final global residual: %.6f\n",
      nranks, cells, iters, residual);
  return 0;
}
