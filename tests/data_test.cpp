// Tests for the data layer: RLS, storage elements, GridFTP transfers and
// replica selection.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "data/gridftp.hpp"
#include "data/replication.hpp"
#include "data/rls.hpp"
#include "data/storage.hpp"
#include "sim/engine.hpp"

namespace sphinx::data {
namespace {

constexpr double kMB = 1e6;

TEST(Rls, RegisterAndLocate) {
  ReplicaLocationService rls;
  rls.register_replica("lfn://a", SiteId(1), 10 * kMB);
  rls.register_replica("lfn://a", SiteId(2), 10 * kMB);
  rls.register_replica("lfn://b", SiteId(1), 5 * kMB);

  EXPECT_TRUE(rls.exists("lfn://a"));
  EXPECT_FALSE(rls.exists("lfn://missing"));
  const auto replicas = rls.locate("lfn://a");
  EXPECT_EQ(replicas.size(), 2u);
  EXPECT_EQ(rls.locate("lfn://missing").size(), 0u);
  EXPECT_EQ(rls.lfn_count(), 2u);
}

TEST(Rls, ReRegisterUpdatesSize) {
  ReplicaLocationService rls;
  rls.register_replica("lfn://a", SiteId(1), 10 * kMB);
  rls.register_replica("lfn://a", SiteId(1), 20 * kMB);
  const auto replicas = rls.locate("lfn://a");
  ASSERT_EQ(replicas.size(), 1u);
  EXPECT_DOUBLE_EQ(replicas[0].size_bytes, 20 * kMB);
}

TEST(Rls, UnregisterDropsIndexWhenLastReplicaGone) {
  ReplicaLocationService rls;
  rls.register_replica("lfn://a", SiteId(1), kMB);
  rls.register_replica("lfn://a", SiteId(2), kMB);
  rls.unregister_replica("lfn://a", SiteId(1));
  EXPECT_TRUE(rls.exists("lfn://a"));
  rls.unregister_replica("lfn://a", SiteId(2));
  EXPECT_FALSE(rls.exists("lfn://a"));
  EXPECT_EQ(rls.lfn_count(), 0u);
}

TEST(Rls, BulkLookupIsParallelToInputAndCountsOnce) {
  ReplicaLocationService rls;
  rls.register_replica("lfn://a", SiteId(1), kMB);
  rls.register_replica("lfn://c", SiteId(2), kMB);
  const std::size_t before = rls.queries();
  const auto result = rls.locate_bulk({"lfn://a", "lfn://b", "lfn://c"});
  EXPECT_EQ(rls.queries(), before + 1);  // one clubbed call
  ASSERT_EQ(result.size(), 3u);
  EXPECT_EQ(result[0].size(), 1u);
  EXPECT_TRUE(result[1].empty());
  EXPECT_EQ(result[2][0].site, SiteId(2));
}

TEST(Rls, LrcIsPerSite) {
  ReplicaLocationService rls;
  rls.register_replica("lfn://a", SiteId(1), kMB);
  EXPECT_TRUE(rls.lrc(SiteId(1)).has("lfn://a"));
  EXPECT_FALSE(rls.lrc(SiteId(2)).has("lfn://a"));
  EXPECT_EQ(rls.lrc(SiteId(1)).size_of("lfn://a"), kMB);
  EXPECT_FALSE(rls.lrc(SiteId(2)).size_of("lfn://a").has_value());
}

TEST(Storage, StoreAndAccounting) {
  StorageElement se(SiteId(1), 100 * kMB);
  EXPECT_TRUE(se.store(UserId(1), "lfn://a", 30 * kMB).ok());
  EXPECT_TRUE(se.store(UserId(2), "lfn://b", 20 * kMB).ok());
  EXPECT_DOUBLE_EQ(se.used(), 50 * kMB);
  EXPECT_DOUBLE_EQ(se.free_space(), 50 * kMB);
  EXPECT_DOUBLE_EQ(se.used_by(UserId(1)), 30 * kMB);
  EXPECT_DOUBLE_EQ(se.used_by(UserId(3)), 0.0);
  EXPECT_EQ(se.file_count(), 2u);
}

TEST(Storage, RejectsOverflowAndDuplicates) {
  StorageElement se(SiteId(1), 10 * kMB);
  ASSERT_TRUE(se.store(UserId(1), "lfn://a", 8 * kMB).ok());
  const auto full = se.store(UserId(1), "lfn://b", 5 * kMB);
  EXPECT_FALSE(full.ok());
  EXPECT_EQ(full.error().code, "storage_full");
  const auto dup = se.store(UserId(1), "lfn://a", kMB);
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(dup.error().code, "storage_duplicate");
  EXPECT_DOUBLE_EQ(se.used(), 8 * kMB);  // failed stores had no effect
}

TEST(Storage, EraseReleasesSpace) {
  StorageElement se(SiteId(1), 10 * kMB);
  ASSERT_TRUE(se.store(UserId(1), "lfn://a", 8 * kMB).ok());
  EXPECT_TRUE(se.erase("lfn://a"));
  EXPECT_FALSE(se.erase("lfn://a"));
  EXPECT_DOUBLE_EQ(se.used(), 0.0);
  EXPECT_DOUBLE_EQ(se.used_by(UserId(1)), 0.0);
  EXPECT_TRUE(se.store(UserId(1), "lfn://b", 9 * kMB).ok());
}

TEST(StorageFabric, OnePerSite) {
  StorageFabric fabric;
  StorageElement& a = fabric.add(SiteId(1), 10 * kMB);
  StorageElement& same = fabric.add(SiteId(1), 999 * kMB);
  EXPECT_EQ(&a, &same);  // first capacity wins
  EXPECT_DOUBLE_EQ(same.capacity(), 10 * kMB);
  EXPECT_NE(fabric.find(SiteId(1)), nullptr);
  EXPECT_EQ(fabric.find(SiteId(2)), nullptr);
}

class TransferFixture : public ::testing::Test {
 protected:
  TransferFixture() : transfers(engine) {
    transfers.set_link(SiteId(1), {10 * kMB, 10 * kMB});
    transfers.set_link(SiteId(2), {10 * kMB, 10 * kMB});
    transfers.set_link(SiteId(3), {1 * kMB, 1 * kMB});
  }

  sim::Engine engine;
  TransferService transfers;
};

TEST_F(TransferFixture, SingleTransferAtFullRate) {
  Duration took = -1;
  transfers.transfer(SiteId(1), SiteId(2), 100 * kMB,
                     [&](TransferId, Duration d) { took = d; });
  engine.run_until();
  EXPECT_NEAR(took, 10.0, 1e-6);  // 100 MB at 10 MB/s
  EXPECT_EQ(transfers.stats().completed, 1u);
  EXPECT_NEAR(transfers.stats().bytes_moved, 100 * kMB, 1.0);
}

TEST_F(TransferFixture, LocalTransferIsInstant) {
  Duration took = -1;
  transfers.transfer(SiteId(1), SiteId(1), 100 * kMB,
                     [&](TransferId, Duration d) { took = d; });
  engine.run_until();
  EXPECT_DOUBLE_EQ(took, 0.0);
}

TEST_F(TransferFixture, SlowLinkBoundsRate) {
  Duration took = -1;
  transfers.transfer(SiteId(3), SiteId(2), 60 * kMB,
                     [&](TransferId, Duration d) { took = d; });
  engine.run_until();
  EXPECT_NEAR(took, 60.0, 1e-6);  // bottleneck is the 1 MB/s uplink
}

TEST_F(TransferFixture, SharedDownlinkSplitsBandwidth) {
  // Two 10 MB/s sources into one 10 MB/s destination: each gets 5 MB/s.
  std::vector<Duration> done;
  transfers.set_link(SiteId(4), {10 * kMB, 10 * kMB});
  transfers.transfer(SiteId(1), SiteId(2), 50 * kMB,
                     [&](TransferId, Duration d) { done.push_back(d); });
  transfers.transfer(SiteId(4), SiteId(2), 50 * kMB,
                     [&](TransferId, Duration d) { done.push_back(d); });
  engine.run_until();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 10.0, 1e-6);  // 50 MB at 5 MB/s
  EXPECT_NEAR(done[1], 10.0, 1e-6);
}

TEST_F(TransferFixture, RatesRebalanceWhenTransferFinishes) {
  // Transfer A: 50 MB, B: 100 MB, same links.  Shared 5 MB/s each until A
  // finishes at t=10 with 50 MB of B left; B then runs at 10 MB/s and
  // finishes at t=15.
  Duration a_done = -1, b_done = -1;
  transfers.transfer(SiteId(1), SiteId(2), 50 * kMB,
                     [&](TransferId, Duration d) { a_done = d; });
  transfers.transfer(SiteId(1), SiteId(2), 100 * kMB,
                     [&](TransferId, Duration d) { b_done = d; });
  engine.run_until();
  EXPECT_NEAR(a_done, 10.0, 1e-6);
  EXPECT_NEAR(b_done, 15.0, 1e-6);
}

TEST_F(TransferFixture, CancelSilencesCallbackAndFreesBandwidth) {
  bool a_fired = false;
  Duration b_done = -1;
  const TransferId a = transfers.transfer(
      SiteId(1), SiteId(2), 100 * kMB, [&](TransferId, Duration) { a_fired = true; });
  transfers.transfer(SiteId(1), SiteId(2), 50 * kMB,
                     [&](TransferId, Duration d) { b_done = d; });
  engine.schedule_in(2.0, "cancel", [&] { transfers.cancel(a); });
  engine.run_until();
  EXPECT_FALSE(a_fired);
  EXPECT_EQ(transfers.stats().cancelled, 1u);
  // B: 2s at 5 MB/s (10 MB) + 40 MB at 10 MB/s (4s) = 6s total.
  EXPECT_NEAR(b_done, 6.0, 1e-6);
}

TEST_F(TransferFixture, CancelStopsPendingLocalTransfer) {
  // Same-site and zero-byte transfers complete on the next event; until
  // it fires they are cancellable like any other transfer.
  bool fired = false;
  const auto never = [&](TransferId, Duration) { fired = true; };
  const TransferId same_site =
      transfers.transfer(SiteId(1), SiteId(1), 10 * kMB, never);
  const TransferId zero_bytes =
      transfers.transfer(SiteId(1), SiteId(2), 0.0, never);
  int kept = 0;
  transfers.transfer(SiteId(2), SiteId(2), 10 * kMB,
                     [&](TransferId, Duration) { ++kept; });
  transfers.cancel(same_site);
  transfers.cancel(zero_bytes);
  transfers.cancel(zero_bytes);  // already cancelled: ignored
  engine.run_until();
  EXPECT_FALSE(fired);
  EXPECT_EQ(kept, 1);
  EXPECT_EQ(transfers.stats().started, 3u);
  EXPECT_EQ(transfers.stats().completed, 1u);
  EXPECT_EQ(transfers.stats().cancelled, 2u);
}

TEST_F(TransferFixture, EstimateIgnoresContention) {
  EXPECT_NEAR(transfers.estimate(SiteId(1), SiteId(2), 100 * kMB), 10.0, 1e-9);
  EXPECT_NEAR(transfers.estimate(SiteId(3), SiteId(2), 10 * kMB), 10.0, 1e-9);
  EXPECT_DOUBLE_EQ(transfers.estimate(SiteId(1), SiteId(1), kMB), 0.0);
}

TEST_F(TransferFixture, ManyConcurrentTransfersAllComplete) {
  int completed = 0;
  for (int i = 0; i < 50; ++i) {
    transfers.transfer(SiteId(1 + i % 3), SiteId(1 + (i + 1) % 3), 10 * kMB,
                       [&](TransferId, Duration) { ++completed; });
  }
  engine.run_until();
  EXPECT_EQ(completed, 50);
  EXPECT_EQ(transfers.active(), 0u);
}

// ------------------------------------------- differential fluid model test

/// The map-based fluid model TransferService replaced, kept verbatim as
/// the oracle for the dense one (only the local-transfer path carries the
/// same cancel fix): fresh hash-map flow counts on every rebalance, flows
/// in a std::map, due ids in a side list.  Every output of the two must
/// agree to the last bit.
class MapTransferModel {
 public:
  using Callback = TransferService::Callback;

  explicit MapTransferModel(sim::Engine& engine) : engine_(engine) {}

  void set_link(SiteId site, LinkConfig link) { links_[site] = link; }

  [[nodiscard]] LinkConfig link(SiteId site) const {
    const auto it = links_.find(site);
    return it == links_.end() ? LinkConfig{} : it->second;
  }

  TransferId transfer(SiteId src, SiteId dst, double bytes, Callback done) {
    const TransferId id = ids_.next();
    ++stats_.started;
    if (src == dst || bytes <= 0) {
      stats_.bytes_moved += bytes;
      local_[id] = engine_.schedule_in(
          0.0, "gridftp:local", [this, done = std::move(done), id] {
            local_.erase(id);
            ++stats_.completed;
            done(id, 0.0);
          });
      return id;
    }
    advance_to_now();
    Active a;
    a.src = src;
    a.dst = dst;
    a.remaining = bytes;
    a.started_at = engine_.now();
    a.done = std::move(done);
    active_.emplace(id, std::move(a));
    rebalance();
    return id;
  }

  void cancel(TransferId id) {
    if (const auto local = local_.find(id); local != local_.end()) {
      engine_.cancel(local->second);
      local_.erase(local);
      ++stats_.cancelled;
      return;
    }
    const auto it = active_.find(id);
    if (it == active_.end()) return;
    advance_to_now();
    active_.erase(it);
    ++stats_.cancelled;
    rebalance();
  }

  [[nodiscard]] std::size_t active() const noexcept { return active_.size(); }
  [[nodiscard]] const TransferStats& stats() const noexcept { return stats_; }

 private:
  struct Active {
    SiteId src;
    SiteId dst;
    double remaining = 0.0;
    double rate = 0.0;
    SimTime started_at = 0.0;
    Callback done;
  };

  void advance_to_now() {
    const SimTime now = engine_.now();
    const Duration dt = now - last_update_;
    if (dt > 0) {
      for (auto& [id, a] : active_) {
        a.remaining = std::max(0.0, a.remaining - a.rate * dt);
        stats_.bytes_moved += a.rate * dt;
      }
    }
    last_update_ = now;
  }

  void rebalance() {
    std::unordered_map<SiteId, int> up_count;
    std::unordered_map<SiteId, int> down_count;
    for (const auto& [id, a] : active_) {
      ++up_count[a.src];
      ++down_count[a.dst];
    }
    for (auto& [id, a] : active_) {
      const double up_share = link(a.src).uplink_bps / up_count[a.src];
      const double down_share = link(a.dst).downlink_bps / down_count[a.dst];
      a.rate = std::min(up_share, down_share);
    }
    schedule_next_completion();
  }

  void schedule_next_completion() {
    engine_.cancel(next_completion_);
    next_completion_ = sim::EventHandle{};
    due_.clear();
    if (active_.empty()) return;
    Duration soonest = kNever;
    for (const auto& [id, a] : active_) {
      if (a.rate <= 0) continue;
      const Duration eta = a.remaining / a.rate;
      if (eta < soonest) soonest = eta;
    }
    if (soonest == kNever) return;
    const Duration window = soonest + 1e-9 * (1.0 + soonest);
    for (const auto& [id, a] : active_) {
      if (a.rate > 0 && a.remaining / a.rate <= window) due_.push_back(id);
    }
    next_completion_ = engine_.schedule_in(
        soonest, "gridftp:complete", [this] {
          advance_to_now();
          for (const TransferId id : due_) {
            const auto it = active_.find(id);
            if (it != active_.end()) it->second.remaining = 0.0;
          }
          std::vector<std::pair<TransferId, Active>> finished;
          for (auto it = active_.begin(); it != active_.end();) {
            if (it->second.remaining <= 1e-6) {
              finished.emplace_back(it->first, std::move(it->second));
              it = active_.erase(it);
            } else {
              ++it;
            }
          }
          rebalance();
          for (auto& [id, a] : finished) {
            ++stats_.completed;
            a.done(id, engine_.now() - a.started_at);
          }
        });
  }

  sim::Engine& engine_;
  std::unordered_map<SiteId, LinkConfig> links_;
  std::map<TransferId, Active> active_;
  std::map<TransferId, sim::EventHandle> local_;
  IdGenerator<TransferId> ids_;
  SimTime last_update_ = 0.0;
  sim::EventHandle next_completion_;
  std::vector<TransferId> due_;
  TransferStats stats_;
};

/// One scripted call, fired at `at` as its own engine event.
struct TransferOp {
  enum class Kind { kTransfer, kCancel, kSetLink } kind = Kind::kTransfer;
  SimTime at = 0.0;
  SiteId src;
  SiteId dst;
  double bytes = 0.0;
  std::uint64_t target = 0;  ///< kCancel: raw id; 0 = the latest issued
  LinkConfig link;           ///< kSetLink: new capacities for `src`
};

struct TransferScript {
  std::vector<std::pair<SiteId, LinkConfig>> links;
  std::vector<TransferOp> ops;
};

/// A seeded random mix over 1..20 sites: a burst that holds up to
/// `flows` transfers at once, then trickled arrivals, with same-site and
/// zero-byte transfers, repeated sizes (tied completions), cancels of
/// live, finished and unknown ids, and links set mid-run.  Sites left
/// out of `links` run on the default LinkConfig.
TransferScript random_script(std::uint64_t seed, int flows) {
  Rng rng(seed);
  TransferScript script;
  const std::int64_t sites = rng.uniform_int(1, 20);
  const auto site_id = [](std::int64_t s) {
    return SiteId(static_cast<std::uint64_t>(s));
  };
  const auto site = [&] { return site_id(rng.uniform_int(1, sites)); };
  const auto capacity = [&] {
    return LinkConfig{rng.uniform(1e6, 4e7), rng.uniform(1e6, 4e7)};
  };
  for (std::int64_t s = 1; s <= sites; ++s) {
    if (rng.chance(0.7)) script.links.emplace_back(site_id(s), capacity());
  }
  const double tied[] = {0.0, 1e6, 5e7, 1.5e8};
  const int total = flows + flows / 2;
  for (int i = 0; i < total; ++i) {
    TransferOp op;
    // The burst lands on a few shared instants; the rest trickles in.
    op.at = i < flows ? static_cast<double>(rng.uniform_int(0, 4))
                      : rng.uniform(0.0, 2000.0);
    const double roll = rng.uniform();
    if (roll < 0.12) {
      op.kind = TransferOp::Kind::kCancel;
      op.target = rng.chance(0.3)
                      ? 0
                      : static_cast<std::uint64_t>(
                            rng.uniform_int(1, 2 * total + 10));
    } else if (roll < 0.14) {
      op.kind = TransferOp::Kind::kSetLink;
      op.src = site();
      op.link = capacity();
    } else {
      op.src = site();
      op.dst = rng.chance(0.1) ? op.src : site();
      op.bytes = rng.chance(0.4)
                     ? tied[rng.uniform_int(0, 3)]
                     : rng.uniform(1e5, 3e8);
    }
    script.ops.push_back(op);
  }
  return script;
}

/// Everything observable about a run, as bit patterns.
struct TransferTrace {
  std::vector<std::uint64_t> calls;  ///< (id, duration, now) per callback
  std::vector<std::uint64_t> stats;  ///< stats() after every scripted op
  std::vector<std::uint64_t> end;  ///< final stats, active(), events, clock
};

void push_stats(std::vector<std::uint64_t>& out, const TransferStats& s) {
  out.insert(out.end(), {s.started, s.completed, s.cancelled,
                         std::bit_cast<std::uint64_t>(s.bytes_moved)});
}

/// Plays `script` on a fresh engine.  Callbacks re-enter the model the
/// way CondorG's stage-in chain does: some start a follow-on transfer,
/// some cancel the next id (which may have finished in the same batch).
template <typename Model>
TransferTrace play(const TransferScript& script) {
  sim::Engine engine;
  Model model(engine);
  for (const auto& [site, link] : script.links) model.set_link(site, link);
  TransferTrace trace;
  std::uint64_t latest = 0;
  std::function<void(TransferId, Duration)> on_done =
      [&](TransferId id, Duration took) {
        trace.calls.insert(trace.calls.end(),
                           {id.value(), std::bit_cast<std::uint64_t>(took),
                            std::bit_cast<std::uint64_t>(engine.now())});
        if (id.value() % 5 == 0) {
          latest = model
                       .transfer(SiteId(1 + id.value() % 3),
                                 SiteId(2 + id.value() % 4),
                                 1e6 * static_cast<double>(id.value() % 50),
                                 on_done)
                       .value();
        } else if (id.value() % 7 == 3) {
          model.cancel(TransferId(id.value() + 1));
        }
      };
  for (const TransferOp& op : script.ops) {
    engine.schedule_at(op.at, "op", [&, op] {
      switch (op.kind) {
        case TransferOp::Kind::kTransfer:
          latest = model.transfer(op.src, op.dst, op.bytes, on_done).value();
          break;
        case TransferOp::Kind::kCancel:
          model.cancel(TransferId(op.target == 0 ? latest : op.target));
          break;
        case TransferOp::Kind::kSetLink:
          model.set_link(op.src, op.link);
          break;
      }
      push_stats(trace.stats, model.stats());
    });
  }
  // A bounded run: a model stuck in a zero-progress reschedule loop shows
  // up as a mismatch instead of a hang.
  const std::size_t budget = 50 * script.ops.size() + 1000;
  while (engine.events_fired() < budget && engine.step()) {
  }
  push_stats(trace.end, model.stats());
  trace.end.insert(trace.end.end(),
                   {model.active(), engine.events_fired(),
                    std::bit_cast<std::uint64_t>(engine.now())});
  return trace;
}

TEST(TransferDifferential, DenseModelMatchesMapModelBitForBit) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const int flows = seed == 1 ? 2000 : static_cast<int>(20 + 40 * seed);
    const TransferScript script = random_script(seed, flows);
    const TransferTrace expected = play<MapTransferModel>(script);
    const TransferTrace actual = play<TransferService>(script);
    ASSERT_GT(expected.calls.size(), 0u);
    EXPECT_EQ(actual.calls, expected.calls) << "seed " << seed;
    EXPECT_EQ(actual.stats, expected.stats) << "seed " << seed;
    EXPECT_EQ(actual.end, expected.end) << "seed " << seed;
  }
}

TEST(ReplicaSelection, PrefersLocalThenFastest) {
  sim::Engine engine;
  TransferService transfers(engine);
  transfers.set_link(SiteId(1), {10 * kMB, 10 * kMB});
  transfers.set_link(SiteId(2), {1 * kMB, 1 * kMB});
  transfers.set_link(SiteId(3), {10 * kMB, 10 * kMB});

  const std::vector<Replica> replicas = {
      {"lfn://a", SiteId(2), 50 * kMB},
      {"lfn://a", SiteId(1), 50 * kMB},
  };
  // Destination 3: site 1's uplink (10 MB/s) beats site 2's (1 MB/s).
  const auto remote = select_replica(replicas, SiteId(3), transfers);
  ASSERT_TRUE(remote.has_value());
  EXPECT_EQ(remote->replica.site, SiteId(1));

  // Destination 2: the local replica wins with cost 0.
  const auto local = select_replica(replicas, SiteId(2), transfers);
  ASSERT_TRUE(local.has_value());
  EXPECT_EQ(local->replica.site, SiteId(2));
  EXPECT_DOUBLE_EQ(local->estimated_cost, 0.0);

  EXPECT_FALSE(select_replica({}, SiteId(1), transfers).has_value());
}

TEST(ReplicaSelection, StageInEstimateSumsInputs) {
  sim::Engine engine;
  TransferService transfers(engine);
  transfers.set_link(SiteId(1), {10 * kMB, 10 * kMB});
  transfers.set_link(SiteId(2), {10 * kMB, 10 * kMB});
  const std::vector<std::vector<Replica>> inputs = {
      {{"lfn://a", SiteId(1), 100 * kMB}},
      {{"lfn://b", SiteId(1), 50 * kMB}},
      {},  // missing input contributes nothing
  };
  EXPECT_NEAR(estimate_stage_in(inputs, SiteId(2), transfers), 15.0, 1e-9);
}

}  // namespace
}  // namespace sphinx::data
