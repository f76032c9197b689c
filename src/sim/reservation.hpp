#pragma once
/// \file reservation.hpp
/// Cross-group handoff reservations — the paper's inter-BS messages made
/// explicit. In the two-level commit scheme (sim/simulator.hpp) cells are
/// partitioned into commit groups whose lanes replay their own events
/// concurrently; a handoff whose source and target cells sit in different
/// groups cannot commit inside either lane, because admission must read the
/// target group's ledger while that lane is still mutating it. Instead the
/// source lane releases its half at the crossing instant and posts a
/// Reservation — a bandwidth claim naming the call, the border it crossed
/// and the demand. At the tick-window barrier, after every lane has
/// quiesced, each claim lands in its target group's inbox; the inboxes are
/// drained in canonical order and each claim is validated against the live
/// HexNetwork ledger (and whatever state the policy consults: SCC demand
/// projections, guard bands, FLC2) before bandwidth is granted.
///
/// Determinism: drain order is (time, call) — a total order, since a call
/// crosses at most one border per tick window. Two groups claiming the
/// last bandwidth unit of one cell therefore resolve the same way at every
/// shard count and on every run: the earlier crossing wins, call id
/// breaking exact ties.

#include <cstdint>

#include "cellular/call.hpp"
#include "cellular/traffic.hpp"

namespace facs::sim {

/// One inter-group bandwidth claim: "call X crossed from from_cell into
/// to_cell at time_s and needs demand_bu units there".
struct Reservation {
  double time_s = 0.0;               ///< Crossing instant (commit order key).
  cellular::CallId call = 0;         ///< Tie-break and call-state handle.
  cellular::CellId from_cell = 0;    ///< Source cell (already released).
  cellular::CellId to_cell = 0;      ///< Target cell whose lane must grant.
  cellular::BandwidthUnits demand_bu = 0;  ///< Claim validated at drain.
  /// Warmup gate evaluated at the crossing instant, carried along so the
  /// barrier counts the handoff exactly as an in-lane commit would have.
  bool counted = false;
  /// Call-pool slot of the in-flight call (the epoch bump at post time
  /// keeps every queued event stale, so the slot stays owned until the
  /// barrier resolves the claim).
  std::uint32_t slot = 0;
};

/// Canonical drain order: earlier crossing first, call id breaking ties.
struct ReservationEarlier {
  bool operator()(const Reservation& a, const Reservation& b) const noexcept {
    if (a.time_s != b.time_s) return a.time_s < b.time_s;
    return a.call < b.call;
  }
};

}  // namespace facs::sim
