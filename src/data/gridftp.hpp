#pragma once
/// \file gridftp.hpp
/// GridFTP-style wide-area transfer simulation.
///
/// Transfers share site uplink/downlink bandwidth using a fluid model:
/// every active transfer gets min(src_uplink / n_src, dst_downlink /
/// n_dst) bytes per second, recomputed whenever a transfer starts or
/// finishes.  Stage-in time is therefore load-dependent, which is what
/// makes the paper's jobs take "three or four minutes" instead of one.
///
/// The state is dense: links sit in a vector indexed by site id, each
/// carrying its live up/down flow counts (kept up to date by +/-1 as
/// flows start and end), and live flows sit in a vector in ascending id
/// order.  Every event still advances every flow, recomputes every rate
/// and rescans for the next completion in id order, so the floating-point
/// results are exactly those of a from-scratch recount; what an event no
/// longer pays for is hashing and tree nodes.

#include <functional>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "data/lfn.hpp"
#include "sim/engine.hpp"

namespace sphinx::data {

/// Per-site network capacity in bytes/second.
struct LinkConfig {
  double uplink_bps = 10e6;    ///< 10 MB/s default
  double downlink_bps = 10e6;
};

/// Aggregate transfer counters.
struct TransferStats {
  std::size_t started = 0;
  std::size_t completed = 0;
  std::size_t cancelled = 0;
  double bytes_moved = 0.0;
};

class TransferService {
 public:
  /// Callback receives the transfer id and the wall-clock duration the
  /// transfer actually took.
  using Callback = std::function<void(TransferId, Duration)>;

  explicit TransferService(sim::Engine& engine);
  /// Scheduled events hold `this`.
  TransferService(const TransferService&) = delete;
  TransferService& operator=(const TransferService&) = delete;

  /// Sets (or replaces) a site's link capacities.
  void set_link(SiteId site, LinkConfig link);
  [[nodiscard]] LinkConfig link(SiteId site) const;

  /// Starts a transfer of `bytes` from `src` to `dst`.  A transfer within
  /// one site, or of zero bytes, completes on the next event at the same
  /// instant (local access; its bytes count as moved at once).  The
  /// callback fires exactly once unless the transfer is cancelled.
  TransferId transfer(SiteId src, SiteId dst, double bytes, Callback done);

  /// Cancels an in-flight or pending local transfer; its callback never
  /// fires.  Unknown or finished ids are ignored.
  void cancel(TransferId id);

  [[nodiscard]] std::size_t active() const noexcept { return active_.size(); }
  [[nodiscard]] const TransferStats& stats() const noexcept { return stats_; }

  /// Contention-free lower bound on the duration of a transfer, used by
  /// planners for estimation.
  [[nodiscard]] Duration estimate(SiteId src, SiteId dst, double bytes) const;

 private:
  struct Active {
    TransferId id;
    SiteId src;
    SiteId dst;
    double remaining = 0.0;
    double rate = 0.0;  ///< current bytes/sec
    SimTime started_at = 0.0;
    /// This flow's remaining/rate determined the pending completion
    /// event; it is force-completed when that fires (guards against
    /// floating-point residues that would otherwise reschedule with ~zero
    /// progress).
    bool due = false;
    Callback done;
  };

  /// A site's capacities plus the live flows using them.
  struct Link {
    LinkConfig config;
    int up = 0;    ///< active flows with this site as source
    int down = 0;  ///< active flows with this site as destination
  };

  /// A same-site or zero-byte transfer waiting for its completion event.
  struct Local {
    TransferId id;
    sim::EventHandle event;
  };

  /// The slot for `site`, growing the table with default links.
  Link& slot(SiteId site);
  /// Removes `a`'s flow from its links' counts.
  void release(const Active& a);
  /// Applies elapsed progress, recomputes rates, reschedules completion.
  void rebalance();
  void advance_to_now();
  void schedule_next_completion();
  /// The completion event: finishes the due and drained flows, then
  /// fires their callbacks in id order.
  void complete_due();

  sim::Engine& engine_;
  std::vector<Link> links_;  ///< indexed by SiteId::value()
  /// Ascending id order (ids are monotonic, so starts append): iteration
  /// feeds stats accumulation, completion scheduling and callback order,
  /// all of which must replay identically under a fixed seed.
  std::vector<Active> active_;
  std::vector<Local> local_;  ///< ascending id order, like active_
  IdGenerator<TransferId> ids_;
  SimTime last_update_ = 0.0;
  sim::EventHandle next_completion_;
  TransferStats stats_;
};

}  // namespace sphinx::data
