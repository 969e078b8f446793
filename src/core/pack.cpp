#include "mpx/core/pack.hpp"

#include "internal.hpp"

namespace mpx {
namespace {

using core_detail::RequestImpl;

Request start_pack_op(dtype::PackDir dir, void* typed, std::size_t count,
                      dtype::Datatype dt, base::ByteSpan packed,
                      const Stream& stream, std::size_t chunk) {
  expects(stream.valid(), "ipack/iunpack: invalid stream");
  expects(dt.valid(), "ipack/iunpack: invalid datatype");
  core_detail::Vci& v = stream.world().vci(stream.rank(), stream.vci());

  auto* r = new RequestImpl(core_detail::ReqKind::pack);
  r->world = &stream.world();
  r->vci = &v;
  r->self = stream.rank();
  v.active_ops.fetch_add(1, std::memory_order_relaxed);

  auto work = std::make_unique<dtype::PackWork>(dir, typed, count,
                                                std::move(dt), packed, chunk);
  r->total_bytes = work->total_bytes();
  r->ref_inc();  // the engine's completion cookie
  {
    base::LockGuard<base::InstrumentedMutex> g(v.mu);
    v.pack_engine.submit(
        std::move(work),
        [](void* cookie) {
          base::Ref<RequestImpl> req(static_cast<RequestImpl*>(cookie));
          req->status.count_bytes = req->total_bytes;
          core_detail::complete_request(req.get(), Err::success);
        },
        r);
  }
  v.bell->ring();
  return Request(base::Ref<RequestImpl>(r));
}

}  // namespace

Request ipack(const void* buf, std::size_t count, dtype::Datatype dt,
              base::ByteSpan packed, const Stream& stream,
              std::size_t chunk_bytes) {
  return start_pack_op(dtype::PackDir::pack, const_cast<void*>(buf), count,
                       std::move(dt), packed, stream, chunk_bytes);
}

Request iunpack(base::ConstByteSpan packed, void* buf, std::size_t count,
                dtype::Datatype dt, const Stream& stream,
                std::size_t chunk_bytes) {
  return start_pack_op(
      dtype::PackDir::unpack, buf, count, std::move(dt),
      base::ByteSpan(const_cast<std::byte*>(packed.data()), packed.size()),
      stream, chunk_bytes);
}

}  // namespace mpx
