#pragma once
/// \file erlang.hpp
/// The Erlang B formula, used to validate the simulator: an M/M/c/c
/// system's blocking probability is exact for single-class Poisson traffic
/// under Complete Sharing, so the simulator must converge to it
/// (tests/sim/erlang_test.cpp checks that it does). The stadium example
/// prints it as the theory anchor of its measured blocking.

namespace facs::sim {

/// Erlang B blocking probability: B(c, a) for c servers (here: bandwidth
/// units) and offered load a in erlangs. Computed with the stable
/// recurrence B(0) = 1, B(k) = a B(k-1) / (k + a B(k-1)).
/// \throws std::invalid_argument if servers < 0 or offered load < 0.
[[nodiscard]] double erlangB(int servers, double offered_erlangs);

}  // namespace facs::sim
