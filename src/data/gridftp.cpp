#include "data/gridftp.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace sphinx::data {
namespace {
constexpr double kEpsilonBytes = 1e-6;  // snap tiny residues to done

/// First element of an id-ordered vector whose id is not below `id`.
template <typename T>
auto find_id(std::vector<T>& v, TransferId id) {
  return std::lower_bound(
      v.begin(), v.end(), id,
      [](const T& x, TransferId wanted) { return x.id < wanted; });
}
}  // namespace

TransferService::TransferService(sim::Engine& engine) : engine_(engine) {}

TransferService::Link& TransferService::slot(SiteId site) {
  const auto index = static_cast<std::size_t>(site.value());
  if (index >= links_.size()) links_.resize(index + 1);
  return links_[index];
}

void TransferService::set_link(SiteId site, LinkConfig link) {
  SPHINX_ASSERT(link.uplink_bps > 0 && link.downlink_bps > 0,
                "link capacities must be positive");
  slot(site).config = link;
}

LinkConfig TransferService::link(SiteId site) const {
  const auto index = static_cast<std::size_t>(site.value());
  return index < links_.size() ? links_[index].config : LinkConfig{};
}

Duration TransferService::estimate(SiteId src, SiteId dst,
                                   double bytes) const {
  if (src == dst || bytes <= 0) return 0.0;
  const double rate = std::min(link(src).uplink_bps, link(dst).downlink_bps);
  return bytes / rate;
}

TransferId TransferService::transfer(SiteId src, SiteId dst, double bytes,
                                     Callback done) {
  SPHINX_ASSERT(done != nullptr, "transfer callback must not be null");
  SPHINX_ASSERT(bytes >= 0, "transfer size must be non-negative");
  const TransferId id = ids_.next();
  ++stats_.started;

  if (src == dst || bytes <= 0) {
    // Local replica: no WAN movement.  Complete on the next tick so the
    // caller's bookkeeping finishes first; cancel() can still stop it.
    stats_.bytes_moved += bytes;
    const sim::EventHandle event = engine_.schedule_in(
        0.0, "gridftp:local", [this, id, done = std::move(done)] {
          local_.erase(find_id(local_, id));
          ++stats_.completed;
          done(id, 0.0);
        });
    local_.push_back({id, event});
    return id;
  }

  advance_to_now();
  ++slot(src).up;
  ++slot(dst).down;
  Active a;
  a.id = id;
  a.src = src;
  a.dst = dst;
  a.remaining = bytes;
  a.started_at = engine_.now();
  a.done = std::move(done);
  active_.push_back(std::move(a));
  rebalance();
  return id;
}

void TransferService::cancel(TransferId id) {
  if (const auto it = find_id(local_, id);
      it != local_.end() && it->id == id) {
    engine_.cancel(it->event);
    local_.erase(it);
    ++stats_.cancelled;
    return;
  }
  const auto it = find_id(active_, id);
  if (it == active_.end() || it->id != id) return;
  advance_to_now();
  release(*it);
  active_.erase(it);
  ++stats_.cancelled;
  rebalance();
}

void TransferService::release(const Active& a) {
  --links_[a.src.value()].up;
  --links_[a.dst.value()].down;
}

void TransferService::advance_to_now() {
  const SimTime now = engine_.now();
  const Duration dt = now - last_update_;
  if (dt > 0) {
    for (Active& a : active_) {
      a.remaining = std::max(0.0, a.remaining - a.rate * dt);
      stats_.bytes_moved += a.rate * dt;
    }
  }
  last_update_ = now;
}

void TransferService::rebalance() {
  for (Active& a : active_) {
    const Link& up = links_[a.src.value()];
    const Link& down = links_[a.dst.value()];
    a.rate = std::min(up.config.uplink_bps / up.up,
                      down.config.downlink_bps / down.down);
  }
  schedule_next_completion();
}

void TransferService::schedule_next_completion() {
  engine_.cancel(next_completion_);
  next_completion_ = sim::EventHandle{};
  if (active_.empty()) return;

  Duration soonest = kNever;
  for (const Active& a : active_) {
    if (a.rate <= 0) continue;
    const Duration eta = a.remaining / a.rate;
    if (eta < soonest) soonest = eta;
  }
  if (soonest == kNever) return;
  // Transfers whose ETA (numerically) equals the minimum are *due*: they
  // will be force-completed when the event fires, so floating-point
  // residue can never strand a transfer in a zero-progress reschedule
  // loop.  A small relative window also batches near-simultaneous ends.
  const Duration window = soonest + 1e-9 * (1.0 + soonest);
  for (Active& a : active_) {
    a.due = a.rate > 0 && a.remaining / a.rate <= window;
  }

  next_completion_ = engine_.schedule_in(soonest, "gridftp:complete",
                                         [this] { complete_due(); });
}

void TransferService::complete_due() {
  advance_to_now();
  // Collect every transfer that has drained (ties complete together),
  // compacting the survivors in place so id order is kept.
  std::vector<Active> finished;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < active_.size(); ++i) {
    Active& a = active_[i];
    if (a.due) a.remaining = 0.0;
    if (a.remaining <= kEpsilonBytes) {
      release(a);
      finished.push_back(std::move(a));
    } else if (kept++ != i) {
      active_[kept - 1] = std::move(a);
    }
  }
  active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(kept),
                active_.end());
  rebalance();
  for (Active& a : finished) {
    ++stats_.completed;
    a.done(a.id, engine_.now() - a.started_at);
  }
}

}  // namespace sphinx::data
