#include "common/rng.h"

#include <cmath>

namespace dq {

double Rng::exponential(double mean) {
  // Inverse-CDF; guard against log(0).
  double u = uniform();
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

}  // namespace dq
