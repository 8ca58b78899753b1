#pragma once
/// \file metrics.hpp
/// Counter/histogram metric set -- the flight recorder's aggregate half.
///
/// Counters are not stored here.  Each component keeps its counts in a
/// plain stats struct (ServerStats, TrackerStats, BusStats, ...) and
/// registers that struct once through a CounterExport; the metric set
/// reads the registered fields live when a counter is queried or
/// exported.  A histogram is a RunningStats accumulator (common/stats)
/// plus the retained samples so percentiles can be computed at export
/// time.  Storage and export are ordered by qualified name with
/// deterministic float formatting, so two same-seed runs export
/// byte-identical metrics.json.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hpp"

namespace sphinx::obs {

class MetricSet;
class Recorder;

/// One exported field of a stats struct: the counter name it is
/// exported under and the field that holds it.  Components declare a
/// table of these next to their struct.
template <class Stats>
struct CounterField {
  const char* name;
  std::size_t Stats::*field;
};

/// A component's registration of its stats struct with a recorder,
/// held as a member of the component.  The recorder reads the fields
/// live; detaching (destroying the component, or re-attaching) first
/// folds their values into the recorder's run totals.  Exported
/// counters therefore span every incarnation of a component -- a
/// crashed and recovered server -- while the struct counts one.  Safe
/// whichever of the recorder and the component is destroyed first.
class CounterExport {
 public:
  CounterExport() = default;
  ~CounterExport() { detach(); }
  CounterExport(const CounterExport&) = delete;
  CounterExport& operator=(const CounterExport&) = delete;

  /// Exports `fields` of `stats` to `recorder` as "name\@source",
  /// replacing any earlier registration.  A null recorder only detaches.
  template <class Stats, std::size_t N>
  void attach(Recorder* recorder, std::string source, const Stats& stats,
              const CounterField<Stats> (&fields)[N]) {
    std::vector<Field> resolved;
    resolved.reserve(N);
    for (const CounterField<Stats>& f : fields) {
      resolved.push_back(Field{f.name, &(stats.*f.field)});
    }
    attach(recorder, std::move(source), std::move(resolved));
  }
  /// Folds the fields into the run totals and stops exporting them.
  void detach();

 private:
  friend class MetricSet;
  struct Field {
    const char* name;
    const std::size_t* value;
  };
  void attach(Recorder* recorder, std::string source,
              std::vector<Field> fields);

  MetricSet* metrics_ = nullptr;
  std::string source_;
  std::vector<Field> fields_;
};

class MetricSet {
 public:
  /// Per-histogram accumulator.  Samples are retained for percentile
  /// export; stats carries the Welford aggregates.
  struct Histogram {
    RunningStats stats;
    std::vector<double> samples;
  };

  MetricSet() = default;
  ~MetricSet();
  MetricSet(const MetricSet&) = delete;
  MetricSet& operator=(const MetricSet&) = delete;

  /// Folds one observation into a histogram.
  void observe(const std::string& name, double value);

  /// Counter "name\@source": the registered fields exported under it,
  /// live and folded, summed.  0 for a counter nothing exports.
  [[nodiscard]] std::uint64_t counter(const std::string& name,
                                      const std::string& source) const;
  /// Histogram by name; nullptr when never observed.
  [[nodiscard]] const Histogram* histogram(const std::string& name) const;

  /// Every exported counter by qualified name.
  [[nodiscard]] std::map<std::string, std::uint64_t> counters() const;
  [[nodiscard]] const std::map<std::string, Histogram>& histograms()
      const noexcept {
    return histograms_;
  }

  /// The whole set as one pretty-printed JSON document: counters first,
  /// then histograms with count/mean/min/max/stddev and p50/p90/p99.
  [[nodiscard]] std::string to_json() const;

 private:
  friend class CounterExport;

  std::vector<CounterExport*> exports_;  ///< live registrations
  /// Values of detached registrations, by qualified name.
  std::map<std::string, std::uint64_t> retired_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace sphinx::obs
