#pragma once
/// \file coordinator.hpp
/// The control-plane coordinator: lease service + failure monitor +
/// dead-shard adoption.
///
/// One coordinator serves a multi-scheduler deployment.  It hosts the
/// `ctrl.renew` Clarens method the HeartbeatAgents call, keeps the
/// journaled LeaseTable, and runs a periodic monitor that declares a
/// shard dead when its owner stops renewing.  On expiry it picks the
/// adopter -- the first scheduler in grant order that still holds a
/// current lease of its own -- and runs the installed AdoptHandler,
/// which recovers the dead shard from its CheckpointImage + journal
/// suffix and re-registers its endpoint.  Only when the handler succeeds
/// is the lease transferred (epoch + 1), fencing the old owner.
///
/// Trace policy: granted / expired / adopted / fenced each emit one
/// event; successful renewals are metrics-only ("ctrl.lease_renewals"),
/// because per-beat trace lines would dwarf the scheduling trace they
/// ride alongside.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/error.hpp"
#include "common/time.hpp"
#include "ctrl/lease.hpp"
#include "obs/recorder.hpp"
#include "rpc/clarens.hpp"
#include "rpc/transport.hpp"
#include "sim/engine.hpp"

namespace sphinx::ctrl {

/// Coordinator knobs.  Defaults tolerate two missed beats: with a 1 s
/// heartbeat and a 3 s TTL, expiry needs three consecutive silent beats,
/// so one delayed delivery never triggers a spurious failover.
struct CoordinatorConfig {
  std::string endpoint = "ctrl/coordinator";
  Duration lease_ttl = 3.0;
  Duration monitor_period = 1.0;
  /// Offset of the first monitor sweep after start().
  Duration monitor_phase = 0.0;
  /// VO whose proxies may invoke ctrl methods.
  std::string control_vo = "ivdgl";
};

/// Counters for experiments and tests.
struct CoordinatorStats {
  std::size_t leases_granted = 0;    ///< initial grants
  std::size_t renewals = 0;          ///< deadline extensions granted
  std::size_t fenced = 0;            ///< stale renewals rejected
  std::size_t expirations = 0;       ///< leases declared dead
  std::size_t adoptions = 0;         ///< shards rebound to a survivor
  std::size_t failed_adoptions = 0;  ///< no candidate, or handler failed
};

/// CoordinatorStats as the recorder exports it, "name\@ctrl".
inline constexpr obs::CounterField<CoordinatorStats> kCoordinatorCounters[] = {
    {"ctrl.leases_granted", &CoordinatorStats::leases_granted},
    {"ctrl.lease_renewals", &CoordinatorStats::renewals},
    {"ctrl.lease_fenced", &CoordinatorStats::fenced},
    {"ctrl.lease_expired", &CoordinatorStats::expirations},
    {"ctrl.shard_adoptions", &CoordinatorStats::adoptions},
    {"ctrl.failed_adoptions", &CoordinatorStats::failed_adoptions},
};

class LeaseCoordinator {
 public:
  /// Recovers the dead shard's scheduler under `new_owner`.  Runs inside
  /// the monitor sweep, before the lease is transferred: a handler
  /// failure leaves the lease expired and the next sweep retries.
  using AdoptHandler = std::function<StatusOrError(
      const std::string& shard, const std::string& dead_owner,
      const std::string& new_owner)>;
  /// Fires after a successful transfer -- the harness's hook for
  /// starting the new owner's HeartbeatAgent with the new epoch.
  using AdoptedCallback = std::function<void(
      const std::string& shard, const std::string& new_owner,
      std::uint64_t epoch)>;

  LeaseCoordinator(rpc::MessageBus& bus, CoordinatorConfig config);

  /// Rebuilds a coordinator from a crashed instance's lease journal:
  /// ownership, epochs and deadlines all survive, so a recovered control
  /// plane fences exactly the owners the dead one would have.
  static Expected<std::unique_ptr<LeaseCoordinator>> recover(
      rpc::MessageBus& bus, CoordinatorConfig config,
      const db::Journal& journal);

  ~LeaseCoordinator();
  LeaseCoordinator(const LeaseCoordinator&) = delete;
  LeaseCoordinator& operator=(const LeaseCoordinator&) = delete;

  /// Grants `shard`'s initial lease to `owner` (epoch 1).
  std::uint64_t grant(const std::string& shard, const std::string& owner);

  void set_adopt_handler(AdoptHandler handler);
  void set_adopted_callback(AdoptedCallback callback);
  /// Observation only: lease lifecycle events, and stats() exported as
  /// kCoordinatorCounters.
  void set_recorder(obs::Recorder* recorder) {
    recorder_ = recorder;
    counters_.attach(recorder, "ctrl", stats_, kCoordinatorCounters);
  }

  /// Starts / stops the expiry monitor.
  void start();
  void stop();

  /// One monitor sweep (also callable directly from tests): declares
  /// overdue leases dead and adopts them onto survivors.
  void monitor_sweep();

  [[nodiscard]] const LeaseTable& leases() const noexcept { return leases_; }
  [[nodiscard]] const CoordinatorStats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] const CoordinatorConfig& config() const noexcept {
    return config_;
  }

 private:
  LeaseCoordinator(rpc::MessageBus& bus, CoordinatorConfig config,
                   bool deferred_recovery);
  void register_methods();
  Expected<rpc::XrValue> handle_renew(const std::vector<rpc::XrValue>& params);

  rpc::MessageBus& bus_;
  CoordinatorConfig config_;
  LeaseTable leases_;
  std::unique_ptr<rpc::ClarensService> service_;
  std::unique_ptr<sim::PeriodicProcess> monitor_;
  AdoptHandler adopt_handler_;
  AdoptedCallback adopted_callback_;
  CoordinatorStats stats_;
  obs::CounterExport counters_;  ///< exports stats_; after it, so it folds first
  obs::Recorder* recorder_ = nullptr;
};

}  // namespace sphinx::ctrl
