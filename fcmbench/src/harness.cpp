#include "harness.h"

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "fcm/fcm_config.h"
#include "heap_counter.h"
#include "metrics/metrics.h"

namespace fcmbench {

FcmFramework::Options sketch_options(fcm::obs::MetricsRegistry* registry) {
  FcmFramework::Options options;
  options.fcm = fcm::core::FcmConfig::for_memory(600'000, 2, 8, {8, 16, 32});
  options.metrics = registry;
  return options;
}

std::uint64_t hh_threshold(std::uint64_t epoch_volume) {
  return std::max<std::uint64_t>(1, (epoch_volume + 999) / 1000);
}

// --- inputs -----------------------------------------------------------------

namespace {

// murmur3's 32-bit finalizer: a bijection on uint32 with fmix32(0) == 0.
std::uint32_t fmix32(std::uint32_t h) {
  h ^= h >> 16;
  h *= 0x85ebca6bu;
  h ^= h >> 13;
  h *= 0xc2b2ae35u;
  h ^= h >> 16;
  return h;
}

}  // namespace

std::vector<FlowKey> make_flows(std::size_t count) {
  // Distinct and non-zero: fmix32 is a bijection with fmix32(0) == 0, and
  // the index range 1..count never wraps.
  std::vector<FlowKey> flows(count);
  for (std::size_t i = 0; i < count; ++i) {
    flows[i] = FlowKey{fmix32(static_cast<std::uint32_t>(i + 1))};
  }
  return flows;
}

std::vector<FlowKey> zipf_stream(std::span<const FlowKey> flows,
                                 const fcm::common::ZipfSampler& zipf,
                                 std::size_t packets,
                                 std::uint64_t stream_seed) {
  fcm::common::Xoshiro256 rng(stream_seed);
  std::vector<FlowKey> keys(packets);
  for (FlowKey& key : keys) key = flows[zipf.sample(rng) - 1];
  return keys;
}

double registry_sum(const fcm::obs::MetricsRegistry& registry,
                    const std::string& name) {
  double total = 0.0;
  for (const auto& sample : registry.snapshot().samples) {
    if (sample.name == name) total += sample.value;
  }
  return total;
}

// --- results ----------------------------------------------------------------

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},         {"throughput_mpps", "Mpkt/s"},
      {"epoch_ms_p50", "ms"},   {"epoch_ms_p90", "ms"},
      {"heap_mb", "MB"},        {"flow_are", "ratio"},
      {"card_re", "ratio"},     {"hh_f1", "ratio"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"runtime.ingest_ns_per_pkt", "ns"},
      {"runtime.backpressure_spins_per_block", "spins/block"},
      {"runtime.blocks_published", "blocks/epoch"},
      {"runtime.fanout_imbalance", "ratio"},
      {"runtime.queue_high_water_blocks", "ratio"},
      {"runtime.rotate_ms", "ms"},
      {"runtime.merge_ms", "ms"},
      {"fcm.kernel_ns_per_pkt", "ns"},
      {"fcm.merge_ms", "ms"},
      {"fcm.merge_gbps", "GB/s"},
      {"fcm.copy_gbps", "GB/s"},
      {"framework.cardinality_ms", "ms"},
      {"framework.heavy_hitters_ms", "ms"},
      {"framework.heavy_changes_ms", "ms"},
      {"datapath.decode_ns_per_pkt", "ns"},
      {"datapath.parse_failures", "count"},
      {"datapath.cache_ns_per_pkt", "ns"},
      {"datapath.cache_hit_ratio", "ratio"},
      {"datapath.cache_evictions", "1/epoch"},
      {"datapath.snapshot_ms", "ms"},
      {"agg.serialize_ms", "ms"},
      {"agg.peek_us", "us"},
      {"agg.deserialize_ms", "ms"},
      {"agg.deliver_ms", "ms"},
      {"agg.publish_deliver_ms", "ms"},
      {"agg.snapshot_bytes", "bytes"},
      {"agg.query_ns", "ns"},
      {"bench.self_pct", "%"},
      {"runtime.self_pct", "%"},
      {"framework.self_pct", "%"},
      {"datapath.self_pct", "%"},
      {"agg.self_pct", "%"},
      {"obs.tracing_overhead_pct", "%"},
  };
  return specs;
}

namespace {

const MetricSpec* find_spec(const std::string& name) {
  for (const auto* specs : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricSpec& spec : *specs) {
      if (name == spec.name) return &spec;
    }
  }
  return nullptr;
}

}  // namespace

void Result::set(const std::string& name, double value) {
  if (find_spec(name) == nullptr) {
    throw std::logic_error("metric not in the catalogue: " + name);
  }
  values_[name] = value;
}

void Result::check(bool ok, const char* what, std::int64_t epoch) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 20) {
    failures_.push_back(epoch < 0 ? std::string(what)
                                  : "epoch " + std::to_string(epoch) + ": " + what);
  }
}

void Result::print(bool traced) const {
  const auto& specs = traced ? per_layer_metrics() : end_to_end_metrics();
  for (const std::string& line : notes_) std::printf("# %s\n", line.c_str());
  for (const std::string& line : failures_) {
    std::printf("# FAILED: %s\n", line.c_str());
  }
  std::printf("# %llu operations attempted, %llu failed\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    const auto it = values_.find(spec.name);
    // A per-layer metric a workload does not exercise reads 0.
    double value = it == values_.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) value = 0.0;
    std::printf("%-40s %18.6f %s\n", spec.name, value, spec.unit);
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    json += first ? "" : ", ";
    json += "\"" + std::string(spec.name) + "\": {\"value\": " + number +
            ", \"unit\": \"" + spec.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// --- measurement helpers ----------------------------------------------------

double median(std::vector<double> samples) { return percentile(std::move(samples), 0.5); }

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

double median_seconds(int reps, const std::function<void()>& fn) {
  std::vector<double> seconds;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t start = now_ns();
    fn();
    seconds.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  }
  return median(std::move(seconds));
}

void SetupTimer::round() {
  std::vector<double> seconds;
  double total = 0.0;
  while (seconds.size() < 7 || (total < 0.05 && seconds.size() < 1000)) {
    teardown_();
    malloc_trim(0);
    cpus_.move_to(seconds.size());
    cpus_.release();
    const std::int64_t start = now_ns();
    build_();
    seconds.push_back(static_cast<double>(now_ns() - start) * 1e-9);
    total += seconds.back();
  }
  round_medians_.push_back(median(std::move(seconds)));
}

double SetupTimer::seconds() const {
  double sum = 0.0;
  for (const double s : round_medians_) sum += s;
  return round_medians_.empty()
             ? 0.0
             : sum / static_cast<double>(round_medians_.size());
}

CpuRotation::CpuRotation() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
  }
}

void CpuRotation::release() {
  if (cpus_.size() < 2) return;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  for (const int cpu : cpus_) CPU_SET(cpu, &allowed);
  sched_setaffinity(0, sizeof(allowed), &allowed);
}

void CpuRotation::move_to(std::size_t slot) {
  if (cpus_.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[slot % cpus_.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

TraceSchedule::TraceSchedule(Tracer& tracer, bool traced_run, double seconds)
    : tracer_(tracer), traced_run_(traced_run), slice_s_(seconds / 8.0) {}

void TraceSchedule::begin_epoch(std::int64_t start_ns,
                                std::int64_t run_start_ns) {
  epoch_start_ns_ = start_ns;
  if (!traced_run_) return;
  const auto slice = static_cast<std::int64_t>(
      static_cast<double>(start_ns - run_start_ns) * 1e-9 / slice_s_);
  tracer_.set_enabled(slice % 2 == 1);
}

void TraceSchedule::end_epoch(std::uint64_t packets, std::int64_t end_ns) {
  Mode& mode = tracer_.enabled() ? on_ : off_;
  mode.packets += static_cast<double>(packets);
  mode.seconds += static_cast<double>(end_ns - epoch_start_ns_) * 1e-9;
}

double TraceSchedule::overhead_pct() const {
  if (on_.seconds <= 0.0 || off_.seconds <= 0.0) return 0.0;
  const double off_rate = off_.packets / off_.seconds;
  const double on_rate = on_.packets / on_.seconds;
  return (off_rate - on_rate) / off_rate * 100.0;
}

HeapWindow::HeapWindow() : baseline_(heap::live_bytes()) {}

void HeapWindow::start_timed() { heap::reset_peak(); }

double HeapWindow::peak_mb() const {
  return static_cast<double>(heap::peak_bytes() - baseline_) / 1e6;
}

// --- accuracy ---------------------------------------------------------------

Truth count_truth(std::span<const FlowKey> keys) {
  Truth truth;
  truth.reserve(keys.size() / 2);
  for (const FlowKey key : keys) ++truth[key];
  return truth;
}

void AccuracyScore::add(const Truth& truth,
                        const std::function<std::uint64_t(FlowKey)>& estimate,
                        double cardinality,
                        std::span<const FlowKey> heavy_hitters,
                        std::uint64_t threshold) {
  std::vector<FlowKey> actual;
  for (const auto& [key, size] : truth) {
    if (size >= threshold) actual.push_back(key);
  }
  are_ += fcm::metrics::size_errors(truth, estimate).are;
  card_ += fcm::metrics::relative_error(cardinality,
                                        static_cast<double>(truth.size()));
  f1_ += fcm::metrics::classification_scores(heavy_hitters, actual).f1;
  ++epochs_;
}

void set_end_to_end(Result& result, double setup_s, const EpochLog& log,
                    double heap_mb, const AccuracyScore& accuracy) {
  result.set("setup_s", setup_s);
  result.set("throughput_mpps",
             static_cast<double>(log.packets) / log.wall_s / 1e6);
  result.set("epoch_ms_p50", percentile(log.latency_ms, 0.5));
  result.set("epoch_ms_p90", percentile(log.latency_ms, 0.9));
  result.set("heap_mb", heap_mb);
  result.set("flow_are", accuracy.flow_are());
  result.set("card_re", accuracy.card_re());
  result.set("hh_f1", accuracy.hh_f1());
  result.note("epoch samples: " + std::to_string(log.latency_ms.size()) +
              ", timed wall: " + std::to_string(log.wall_s) + " s");
}

// --- per-layer probes -------------------------------------------------------

bool same_counters(const FcmFramework& a, const FcmFramework& b) {
  const auto& sa = a.sketch();
  const auto& sb = b.sketch();
  if (sa.tree_count() != sb.tree_count()) return false;
  for (std::size_t t = 0; t < sa.tree_count(); ++t) {
    const auto& ta = sa.tree(t);
    const auto& tb = sb.tree(t);
    if (ta.config().stage_count() != tb.config().stage_count()) return false;
    for (std::size_t l = 1; l <= ta.config().stage_count(); ++l) {
      if (!std::ranges::equal(ta.stage(l), tb.stage(l))) return false;
    }
  }
  return true;
}

double probe_kernel_ns_per_pkt(std::span<const FlowKey> keys) {
  std::vector<double> seconds;
  for (int r = 0; r < 5; ++r) {
    FcmFramework framework(sketch_options(nullptr));
    const std::int64_t start = now_ns();
    framework.process_batch(keys);
    seconds.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  }
  return median(std::move(seconds)) * 1e9 / static_cast<double>(keys.size());
}

MergeProbe probe_merge(const FcmFramework& a, const FcmFramework& b) {
  const std::size_t bytes = a.memory_bytes();
  std::vector<double> merge_s;
  for (int r = 0; r < 9; ++r) {
    FcmFramework target = a;
    const std::int64_t start = now_ns();
    target.merge(b);
    merge_s.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  }
  std::vector<unsigned char> src(bytes, 1);
  std::vector<unsigned char> dst(bytes, 0);
  const double copy_s = median_seconds(
      9, [&] { std::memcpy(dst.data(), src.data(), bytes); });
  MergeProbe probe;
  probe.merge_ms = median(merge_s) * 1e3;
  probe.merge_gbps = static_cast<double>(bytes) / median(merge_s) / 1e9;
  probe.copy_gbps = static_cast<double>(bytes) / copy_s / 1e9;
  if (dst[bytes / 2] != 1) throw std::logic_error("copy probe lost its bytes");
  return probe;
}

void probe_reports(Result& result, const FcmFramework& previous,
                   const FcmFramework& current, std::uint64_t threshold) {
  // The calls live in another translation unit, so they are not elided.
  result.set("framework.cardinality_ms",
             median_seconds(9, [&] { static_cast<void>(current.cardinality()); }) * 1e3);
  result.set("framework.heavy_hitters_ms",
             median_seconds(9, [&] { static_cast<void>(current.heavy_hitters()); }) * 1e3);
  result.set("framework.heavy_changes_ms", median_seconds(9, [&] {
               static_cast<void>(FcmFramework::heavy_changes(previous, current, threshold));
             }) * 1e3);
}

void set_trace_shares(Result& result, const Tracer& tracer,
                      const TraceSchedule& schedule) {
  const auto self = tracer.self_ns_by_layer();
  const double wall_ns = schedule.traced_seconds() * 1e9;
  double total_pct = 0.0;
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    const double pct = wall_ns > 0.0 ? self[l] / wall_ns * 100.0 : 0.0;
    total_pct += pct;
    result.set(std::string(layer_name(static_cast<Layer>(l))) + ".self_pct",
               pct);
  }
  result.note("span self time covers " + std::to_string(total_pct) +
              "% of the traced wall time (" +
              std::to_string(tracer.spans().size()) + " spans)");
  result.set("obs.tracing_overhead_pct", schedule.overhead_pct());
}

double span_ms_per_call(const std::map<std::string, Tracer::Totals>& totals,
                        const std::string& name) {
  const auto it = totals.find(name);
  if (it == totals.end() || it->second.calls == 0) return 0.0;
  return it->second.total_ns / static_cast<double>(it->second.calls) / 1e6;
}

double span_ns_per_item(const std::map<std::string, Tracer::Totals>& totals,
                        const std::string& name) {
  const auto it = totals.find(name);
  if (it == totals.end() || it->second.count == 0) return 0.0;
  return it->second.total_ns / static_cast<double>(it->second.count);
}

}  // namespace fcmbench
