#include "obs/recorder.hpp"

#include "monitor/gma.hpp"

namespace sphinx::obs {

void Recorder::event(TraceKind kind, std::string source, std::string subject,
                     std::string detail, double value) {
  TraceEvent e;
  e.at = engine_.now();
  e.kind = kind;
  e.source = std::move(source);
  e.subject = std::move(subject);
  e.detail = std::move(detail);
  e.value = value;
  trace_.record(std::move(e));
}

void CounterExport::attach(Recorder* recorder, std::string source,
                           std::vector<Field> fields) {
  // Moving to another recorder folds the values into the old one's run
  // totals; staying with the same one must not count them twice.
  if (recorder == nullptr || metrics_ != &recorder->metrics_) {
    detach();
    if (recorder == nullptr) return;
    metrics_ = &recorder->metrics_;
    metrics_->exports_.push_back(this);
  }
  source_ = std::move(source);
  fields_ = std::move(fields);
}

void Recorder::observe(const std::string& source, const std::string& name,
                       double value) {
  metrics_.observe(qualified_name(name, source), value);
}

std::uint64_t Recorder::counter(const std::string& name,
                                const std::string& source) const {
  return metrics_.counter(name, source);
}

const MetricSet::Histogram* Recorder::histogram(
    const std::string& name, const std::string& source) const {
  return metrics_.histogram(qualified_name(name, source));
}

void Recorder::bridge(monitor::MetricRegistry& registry, std::string source) {
  // The wildcard subscription sees every producer that publishes into the
  // registry, so monitoring observations land on the same timeline as
  // scheduler decisions.  Publishing is synchronous and in event order,
  // so the mirrored events inherit the run's determinism.
  registry.subscribe(
      "*", [this, source = std::move(source)](const monitor::Metric& m) {
        event(TraceKind::kMonitorSample, source,
              m.site.valid() ? "site:" + std::to_string(m.site.value())
                             : std::string{},
              m.name, m.value);
        observe(source, m.name, m.value);
      });
}

}  // namespace sphinx::obs
