#include "tensor/tensor.hpp"

namespace hts::tensor {

const char* policy_name(Policy policy) {
  switch (policy) {
    case Policy::kSerial:
      return "serial";
    case Policy::kDataParallel:
      return "tile-parallel";
  }
  return "unknown";
}

}  // namespace hts::tensor
