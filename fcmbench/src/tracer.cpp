#include "tracer.h"

#include <fstream>
#include <stdexcept>

namespace fcmbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kBench: return "bench";
    case Layer::kRuntime: return "runtime";
    case Layer::kFramework: return "framework";
    case Layer::kDatapath: return "datapath";
    case Layer::kAgg: return "agg";
    case Layer::kCount: break;
  }
  return "?";
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, Layer layer,
                     std::uint64_t count)
    : tracer_(&tracer) {
  if (!tracer.enabled_) return;
  index_ = static_cast<std::int32_t>(tracer.spans_.size());
  Span span;
  span.name = name;
  span.layer = layer;
  span.trace_id = tracer.trace_id_;
  span.parent = tracer.open_.empty() ? -1 : tracer.open_.back();
  span.count = count;
  tracer.spans_.push_back(span);
  tracer.open_.push_back(index_);
  tracer.spans_.back().start_ns = now_ns();
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_->spans_[static_cast<std::size_t>(index_)].end_ns = now_ns();
  tracer_->open_.pop_back();
}

std::map<std::string, Tracer::Totals> Tracer::totals_by_name() const {
  std::map<std::string, Totals> totals;
  for (const Span& span : spans_) {
    Totals& t = totals[span.name];
    t.total_ns += static_cast<double>(span.end_ns - span.start_ns);
    t.calls += 1;
    t.count += span.count;
  }
  return totals;
}

std::array<double, kLayerCount> Tracer::self_ns_by_layer() const {
  std::array<double, kLayerCount> self{};
  for (const Span& span : spans_) {
    const auto duration = static_cast<double>(span.end_ns - span.start_ns);
    self[static_cast<std::size_t>(span.layer)] += duration;
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(spans_[static_cast<std::size_t>(span.parent)].layer)] -=
          duration;
    }
  }
  return self;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"trace\":" << s.trace_id
        << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
        << "\",\"layer\":\"" << layer_name(s.layer)
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"count\":" << s.count << "}\n";
  }
  if (!out) throw std::runtime_error("short write to span file " + path);
}

}  // namespace fcmbench
