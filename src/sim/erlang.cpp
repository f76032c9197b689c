#include "sim/erlang.hpp"

#include <stdexcept>

namespace facs::sim {

double erlangB(int servers, double offered_erlangs) {
  if (servers < 0) {
    throw std::invalid_argument("Erlang B needs >= 0 servers");
  }
  if (offered_erlangs < 0.0) {
    throw std::invalid_argument("offered load must be >= 0");
  }
  if (offered_erlangs == 0.0) return 0.0;
  double b = 1.0;
  for (int k = 1; k <= servers; ++k) {
    b = offered_erlangs * b / (k + offered_erlangs * b);
  }
  return b;
}

}  // namespace facs::sim
