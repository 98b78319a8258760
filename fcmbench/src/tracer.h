// In-memory span recorder for the traced run. The benchmark wraps every call
// it makes into a library layer in a Tracer::Scope; each span records its
// name, layer, trace id (the epoch index), parent span, start and end time,
// and the number of work items the call handled. Spans stay in memory and
// are written out once, after the timed region. Scopes opened while the
// tracer is disabled record nothing, so the untraced run pays one branch
// per call.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fcmbench {

// The repository modules a span can be charged to; kBench is the benchmark's
// own code (epoch loop, input slicing).
enum class Layer : std::uint8_t {
  kBench,
  kRuntime,
  kFramework,
  kDatapath,
  kAgg,
  kCount,
};
inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);
const char* layer_name(Layer layer);

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Span {
    const char* name = "";
    Layer layer = Layer::kBench;
    std::uint64_t trace_id = 0;
    std::int32_t parent = -1;  // index into spans(); -1 for a root span
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t count = 1;
  };

  // Per-name aggregate: wall time inside the spans, number of spans, and
  // summed work items.
  struct Totals {
    double total_ns = 0.0;
    std::uint64_t calls = 0;
    std::uint64_t count = 0;
  };

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, Layer layer, std::uint64_t count = 1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t index_ = -1;
  };

  // Scopes must not be open across a toggle.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  void set_trace_id(std::uint64_t id) { trace_id_ = id; }
  void reserve(std::size_t spans) { spans_.reserve(spans); }

  const std::vector<Span>& spans() const { return spans_; }
  std::map<std::string, Totals> totals_by_name() const;
  // Self time (span duration minus the time its child spans cover), summed
  // per layer.
  std::array<double, kLayerCount> self_ns_by_layer() const;

  // One JSON object per line, in recording order.
  void write_jsonl(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::uint64_t trace_id_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

}  // namespace fcmbench
