#include "obs/metrics.hpp"

#include "obs/recorder.hpp"
#include "obs/trace.hpp"

namespace sphinx::obs {

void CounterExport::detach() {
  if (metrics_ != nullptr) {
    for (const Field& f : fields_) {
      metrics_->retired_[Recorder::qualified_name(f.name, source_)] +=
          *f.value;
    }
    std::erase(metrics_->exports_, this);
    metrics_ = nullptr;
  }
  fields_.clear();
}

MetricSet::~MetricSet() {
  // The recorder goes first: its registrations stop exporting, and their
  // components keep counting into their structs.
  for (CounterExport* e : exports_) e->metrics_ = nullptr;
}

void MetricSet::observe(const std::string& name, double value) {
  Histogram& histogram = histograms_[name];
  histogram.stats.add(value);
  histogram.samples.push_back(value);
}

std::uint64_t MetricSet::counter(const std::string& name,
                                 const std::string& source) const {
  std::uint64_t total = 0;
  if (const auto it = retired_.find(Recorder::qualified_name(name, source));
      it != retired_.end()) {
    total = it->second;
  }
  for (const CounterExport* e : exports_) {
    if (e->source_ != source) continue;
    for (const CounterExport::Field& f : e->fields_) {
      if (name == f.name) total += *f.value;
    }
  }
  return total;
}

const MetricSet::Histogram* MetricSet::histogram(
    const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::map<std::string, std::uint64_t> MetricSet::counters() const {
  std::map<std::string, std::uint64_t> out = retired_;
  for (const CounterExport* e : exports_) {
    for (const CounterExport::Field& f : e->fields_) {
      out[Recorder::qualified_name(f.name, e->source_)] += *f.value;
    }
  }
  return out;
}

std::string MetricSet::to_json() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    out += first ? "\n" : ",\n";
    first = false;
    const RunningStats& stats = histogram.stats;
    out += "    \"" + json_escape(name) + "\": {";
    out += "\"count\": " + std::to_string(stats.count());
    out += ", \"mean\": " + format_double(stats.mean());
    out += ", \"min\": " + format_double(stats.min());
    out += ", \"max\": " + format_double(stats.max());
    out += ", \"stddev\": " + format_double(stats.stddev());
    out += ", \"p50\": " + format_double(percentile(histogram.samples, 0.5));
    out += ", \"p90\": " + format_double(percentile(histogram.samples, 0.9));
    out += ", \"p99\": " + format_double(percentile(histogram.samples, 0.99));
    out += "}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

}  // namespace sphinx::obs
