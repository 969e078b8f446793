#include "mpx/io/file.hpp"

#include <algorithm>
#include <cstring>

#include "mpx/coll/coll.hpp"
#include "mpx/core/async.hpp"
#include "mpx/core/waittest.hpp"

namespace mpx::io {

SimDisk::SimDisk(World& world, DiskModel model)
    : world_(&world), model_(model) {}

std::uint64_t SimDisk::size(const std::string& name) const {
  base::LockGuard<base::Spinlock> g(mu_);
  auto it = objects_.find(name);
  return it == objects_.end() ? 0 : it->second.size();
}

bool SimDisk::exists(const std::string& name) const {
  base::LockGuard<base::Spinlock> g(mu_);
  return objects_.count(name) != 0;
}

void SimDisk::remove(const std::string& name) {
  base::LockGuard<base::Spinlock> g(mu_);
  objects_.erase(name);
}

void SimDisk::raw_write(const std::string& name, std::uint64_t offset,
                        base::ConstByteSpan data) {
  base::LockGuard<base::Spinlock> g(mu_);
  auto& obj = objects_[name];
  if (obj.size() < offset + data.size()) obj.resize(offset + data.size());
  if (!data.empty()) std::memcpy(obj.data() + offset, data.data(), data.size());
}

std::vector<std::byte> SimDisk::raw_read(const std::string& name,
                                         std::uint64_t offset,
                                         std::uint64_t len) const {
  base::LockGuard<base::Spinlock> g(mu_);
  auto it = objects_.find(name);
  if (it == objects_.end() || offset >= it->second.size()) return {};
  const std::uint64_t n = std::min<std::uint64_t>(len, it->second.size() - offset);
  return std::vector<std::byte>(it->second.begin() + static_cast<std::ptrdiff_t>(offset),
                                it->second.begin() + static_cast<std::ptrdiff_t>(offset + n));
}

std::uint64_t SimDisk::writes_completed() const {
  base::LockGuard<base::Spinlock> g(mu_);
  return writes_;
}

void SimDisk::note_write_completed() {
  base::LockGuard<base::Spinlock> g(mu_);
  ++writes_;
}

namespace {

/// One in-flight device operation: a generalized request tracked by the
/// caller, progressed by an MPIX_Async hook — the paper's Listing 1.7
/// combination, applied to storage.
struct IoOp {
  std::shared_ptr<SimDisk> disk;
  std::string name;
  bool is_write = false;
  std::uint64_t offset = 0;
  base::Buffer capture;      // write payload (captured at submit)
  base::ByteSpan out;        // read destination
  double due = 0.0;
  std::uint64_t result_bytes = 0;
  Request greq;              // the user-visible handle

  /// Apply the operation to the object store (called once, at completion).
  void apply() {
    if (is_write) {
      disk->raw_write(name, offset, capture.span());
      result_bytes = capture.size();
      disk->note_write_completed();
    } else {
      const auto data = disk->raw_read(name, offset, out.size());
      if (!data.empty()) std::memcpy(out.data(), data.data(), data.size());
      result_bytes = data.size();
    }
  }
};

AsyncResult io_hook(AsyncThing& thing) {
  auto* op = static_cast<IoOp*>(thing.state());
  if (op->disk->world().wtime() < op->due) return AsyncResult::noprogress;
  op->apply();
  // Publish the transferred byte count, then complete the handle. Status
  // writes happen-before the completion flag's release store.
  Request handle = std::move(op->greq);
  handle.impl()->status.count_bytes = op->result_bytes;
  delete op;
  World::grequest_complete(handle);
  return AsyncResult::done;
}

Request submit(const std::shared_ptr<SimDisk>& disk, const Stream& stream,
               std::unique_ptr<IoOp> op) {
  World& w = disk->world();
  const DiskModel& m = disk->model();
  const double bytes = op->is_write
                           ? static_cast<double>(op->capture.size())
                           : static_cast<double>(op->out.size());
  const double bw = op->is_write ? m.write_bw_Bps : m.read_bw_Bps;
  op->due = w.wtime() + m.access_latency + bytes / bw;
  op->greq = w.grequest_start(stream, core_detail::GrequestFns{});
  Request handle = op->greq;
  async_start(&io_hook, op.release(), stream);
  return handle;
}

}  // namespace

File File::open(std::shared_ptr<SimDisk> disk, std::string name,
                const Stream& stream) {
  expects(disk != nullptr, "File::open: null disk");
  expects(stream.valid(), "File::open: invalid stream");
  File f;
  f.disk_ = std::move(disk);
  f.name_ = std::move(name);
  f.stream_ = stream;
  f.disk_->raw_write(f.name_, 0, base::ConstByteSpan{});  // create if absent
  return f;
}

std::uint64_t File::size() const {
  expects(valid(), "File::size: invalid file");
  return disk_->size(name_);
}

Request File::iwrite_at(std::uint64_t offset, base::ConstByteSpan data) {
  expects(valid(), "File::iwrite_at: invalid file");
  auto op = std::make_unique<IoOp>();
  op->disk = disk_;
  op->name = name_;
  op->is_write = true;
  op->offset = offset;
  op->capture = base::Buffer::copy_of(data);
  return submit(disk_, stream_, std::move(op));
}

Request File::iread_at(std::uint64_t offset, base::ByteSpan out) {
  expects(valid(), "File::iread_at: invalid file");
  auto op = std::make_unique<IoOp>();
  op->disk = disk_;
  op->name = name_;
  op->offset = offset;
  op->out = out;
  return submit(disk_, stream_, std::move(op));
}

void File::write_at_all(const Comm& comm, std::uint64_t offset,
                        base::ConstByteSpan data) {
  Request r = iwrite_at(offset, data);
  wait_on_stream(r, stream_);
  coll::barrier(comm);
}

void File::read_at_all(const Comm& comm, std::uint64_t offset,
                       base::ByteSpan out) {
  // All writers must be globally visible before anyone reads.
  coll::barrier(comm);
  Request r = iread_at(offset, out);
  wait_on_stream(r, stream_);
}

}  // namespace mpx::io
