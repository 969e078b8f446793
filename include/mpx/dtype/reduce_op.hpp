// mpx/dtype/reduce_op.hpp
//
// Local reduction operators applied element-wise over typed buffers, used by
// the collective algorithms (allreduce, reduce) and the compiled schedules'
// reduce nodes.
#pragma once

#include <cstddef>
#include <string>

#include "mpx/dtype/datatype.hpp"

namespace mpx::dtype {

/// Predefined reduction operators (subset of MPI_Op).
enum class ReduceOp : int {
  sum = 0,
  prod,
  min,
  max,
  land,  ///< logical and
  lor,   ///< logical or
  band,  ///< bitwise and
  bor,   ///< bitwise or
};

std::string to_string(ReduceOp op);

/// inout[i] = op(inout[i], in[i]) for `count` elements of primitive type
/// `dt.leaf()`. Requires a homogeneous, contiguous datatype (the collective
/// layer packs non-contiguous data before reducing, as MPICH does).
/// Bitwise ops on floating-point types are a usage error.
void reduce_apply(ReduceOp op, const void* in, void* inout, std::size_t count,
                  const Datatype& dt);

}  // namespace mpx::dtype
