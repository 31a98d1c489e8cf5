#include "tensor/workspace.h"

#include <algorithm>
#include <utility>

namespace apots::tensor {

Tensor* Workspace::NextSlot() {
  if (cursor_ == slots_.size()) {
    slots_.push_back(std::make_unique<Tensor>());
  }
  return slots_[cursor_++].get();
}

Tensor* Workspace::Acquire(std::vector<size_t> shape) {
  Tensor* slot = NextSlot();
  slot->ResetShape(std::move(shape));
  high_water_floats_ = std::max(high_water_floats_, capacity_floats());
  return slot;
}

Tensor* Workspace::AcquireCopy(const Tensor& src,
                               std::vector<size_t> shape) {
  APOTS_CHECK_EQ(NumElements(shape), src.size());
  Tensor* slot = Acquire(std::move(shape));
  std::copy(src.data(), src.data() + src.size(), slot->data());
  return slot;
}

void* Workspace::AcquireBytes(size_t bytes) {
  if (byte_cursor_ == byte_slots_.size()) {
    byte_slots_.push_back(std::make_unique<ByteBuffer>());
  }
  ByteBuffer* slot = byte_slots_[byte_cursor_++].get();
  if (slot->size() < bytes) slot->resize(std::max<size_t>(bytes, 64));
  return slot->data();
}

void Workspace::Reset() {
  cursor_ = 0;
  byte_cursor_ = 0;
  ++generation_;
}

size_t Workspace::capacity_floats() const {
  size_t total = 0;
  for (const auto& slot : slots_) total += slot->size();
  return total;
}

size_t Workspace::capacity_bytes() const {
  size_t total = 0;
  for (const auto& slot : byte_slots_) total += slot->size();
  return total;
}

}  // namespace apots::tensor
