#include "common/rng.hpp"

#include <cmath>

namespace d2dhb {

double Rng::exponential(double mean) {
  // Inverse CDF; guard against log(0).
  double u = next_double();
  while (u <= 0.0) u = next_double();
  return -mean * std::log(u);
}

double Rng::normal(double mean, double stddev) {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u1 = next_double();
  while (u1 <= 0.0) u1 = next_double();
  const double u2 = next_double();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * 3.14159265358979323846 * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return mean + stddev * r * std::cos(theta);
}

double KeyedDraw::normal() const {
  const double u1 = 1.0 - unit(mix(hash_, 1));  // (0, 1]: finite log
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * 3.14159265358979323846 * unit(mix(hash_, 2)));
}

}  // namespace d2dhb
