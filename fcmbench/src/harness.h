// Shared plumbing for the benchmark's workloads: run configuration, input
// generation, the end-to-end and per-layer metric catalogue, accuracy
// scoring, and the out-of-loop layer probes.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "flow/flow_key.h"
#include "framework/fcm_framework.h"
#include "obs/metrics_registry.h"
#include "tracer.h"

namespace fcmbench {

using fcm::flow::FlowKey;
using FcmFramework = fcm::framework::FcmFramework;

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Shrinks every input size 64x (the smoke test's tiny run).
  bool smoke = false;
  // Where the traced run writes its spans.
  std::string span_path;

  std::size_t scaled(std::size_t full) const { return smoke ? full >> 6 : full; }
};

// Every workload uses the same sketch: 600 KB, 2 trees, 8-ary, 8/16/32-bit
// levels (the configuration of bench_throughput).
FcmFramework::Options sketch_options(fcm::obs::MetricsRegistry* registry);

// Heavy-hitter threshold: 0.1% of an epoch's volume (at least 1).
std::uint64_t hh_threshold(std::uint64_t epoch_volume);

// --- inputs -----------------------------------------------------------------

// The flow population: `count` distinct non-zero keys in popularity-rank
// order. It is the same in every run (like one network's hosts), so which
// flows are heavy, and how they split across shards, does not change with
// --seed; the seed draws the packets.
std::vector<FlowKey> make_flows(std::size_t count);

// `packets` draws of Zipf-ranked flows from an independent stream.
std::vector<FlowKey> zipf_stream(std::span<const FlowKey> flows,
                                 const fcm::common::ZipfSampler& zipf,
                                 std::size_t packets, std::uint64_t stream_seed);

// Sum of every registry series called `name` (all label sets).
double registry_sum(const fcm::obs::MetricsRegistry& registry,
                    const std::string& name);

// --- results ----------------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};
// The catalogue BENCHMARK.json lists; every run prints all of one kind.
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

class Result {
 public:
  // Sets a catalogue metric (throws on a name not in the catalogue).
  void set(const std::string& name, double value);
  // Counts one attempted operation; a false `ok` counts it failed and
  // records `what` (and the epoch, when given).
  void check(bool ok, const char* what, std::int64_t epoch = -1);
  void note(const std::string& line) { notes_.push_back(line); }

  bool correct() const { return failed_ == 0 && attempted_ > 0; }
  // Human-readable lines, then the one-line JSON result (last line).
  void print(bool traced) const;

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> failures_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// --- measurement helpers ----------------------------------------------------

double median(std::vector<double> samples);
// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> samples, double q);

// Median wall seconds of `reps` calls of `fn`.
double median_seconds(int reps, const std::function<void()>& fn);

// Moves the calling thread to one CPU of its affinity mask at a time, and
// restores the mask when destroyed; with fewer than two CPUs it does
// nothing. The single-threaded workloads spread their epochs (capture_cached)
// or their vantages (network_agg) over the CPUs with it, and SetupTimer its
// builds. On a shared host one CPU runs this work up to 60% slower for
// seconds at a time, and a run confined to one CPU carries that state whole
// into its figures; spread over every CPU, it averages their states.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation() { release(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  // Pins the thread to CPU `slot` modulo the mask's CPUs. Best effort: a
  // failed move leaves the thread where it is.
  void move_to(std::size_t slot);
  // Restores the whole mask; the thread stays where it is until the
  // scheduler moves it, and threads it starts inherit the whole mask.
  void release();

 private:
  std::vector<int> cpus_;
};

// Times the set-up of the system under test. Each round() builds it at
// least 7 times and until 50 ms have been spent (at most 1000 times), so
// that set-ups of a few microseconds are timed as steadily as those of
// milliseconds, and keeps the round's median. `teardown` destroys the
// previous instance, untimed, before each build; the heap is then trimmed,
// so every build touches fresh memory as a process's first construction
// does. The last build of a round stays up for the caller to use.
//
// The host's speed shifts for seconds at a time, so a single round samples
// one such state. Each build of a round starts on the next CPU of the
// affinity mask (see CpuRotation), with the whole mask restored so that the
// threads it starts can run anywhere. An untraced run takes a round before
// its timed region and another after it, and reports the mean of the two
// medians.
class SetupTimer {
 public:
  SetupTimer(std::function<void()> teardown, std::function<void()> build)
      : teardown_(std::move(teardown)), build_(std::move(build)) {}
  void round();
  double seconds() const;

 private:
  std::function<void()> teardown_;
  std::function<void()> build_;
  CpuRotation cpus_;  // the mask at construction
  std::vector<double> round_medians_;
};

// Epoch results of a timed run: one latency sample per epoch result, the
// packets carried to those results, and the run's wall time.
struct EpochLog {
  std::vector<double> latency_ms;
  std::uint64_t packets = 0;
  double wall_s = 0.0;

  void add(double latency, std::uint64_t epoch_packets) {
    latency_ms.push_back(latency);
    packets += epoch_packets;
  }
};

// Alternates tracing on and off in equal time slices of the traced run and
// keeps per-mode throughput, so the run reports its own tracing overhead.
class TraceSchedule {
 public:
  TraceSchedule(Tracer& tracer, bool traced_run, double seconds);
  // Called at each epoch start, before any span of the epoch opens.
  void begin_epoch(std::int64_t start_ns, std::int64_t run_start_ns);
  void end_epoch(std::uint64_t packets, std::int64_t end_ns);
  double traced_seconds() const { return on_.seconds; }
  // (untraced - traced) / untraced throughput, in percent.
  double overhead_pct() const;

 private:
  struct Mode {
    double packets = 0.0;
    double seconds = 0.0;
  };
  Tracer& tracer_;
  bool traced_run_;
  double slice_s_;
  std::int64_t epoch_start_ns_ = 0;
  Mode on_;
  Mode off_;
};

// Peak live heap in the timed region above a baseline taken after inputs
// are built.
class HeapWindow {
 public:
  HeapWindow();  // takes the baseline
  void start_timed();
  double peak_mb() const;

 private:
  std::int64_t baseline_ = 0;
};

// --- accuracy ---------------------------------------------------------------

using Truth = std::unordered_map<FlowKey, std::uint64_t>;
Truth count_truth(std::span<const FlowKey> keys);

// Accuracy is scored on kAccuracyEpochs extra epochs run through the system
// after the timed region. Their packets come from fixed stream seeds, so the
// scores depend on the code alone and a change that trades accuracy for
// speed shows as an exact difference, not as noise between seeds.
inline constexpr std::size_t kAccuracyEpochs = 2;
inline constexpr std::uint64_t kAccuracySeed = 0xacc000;

class AccuracyScore {
 public:
  // One epoch: per-flow estimates, cardinality estimate, reported heavy
  // hitters, against the epoch's exact per-flow volumes.
  void add(const Truth& truth,
           const std::function<std::uint64_t(FlowKey)>& estimate,
           double cardinality, std::span<const FlowKey> heavy_hitters,
           std::uint64_t threshold);
  double flow_are() const { return mean(are_); }
  double card_re() const { return mean(card_); }
  double hh_f1() const { return mean(f1_); }

 private:
  double mean(double sum) const {
    return epochs_ == 0 ? 0.0 : sum / static_cast<double>(epochs_);
  }
  double are_ = 0.0;
  double card_ = 0.0;
  double f1_ = 0.0;
  std::size_t epochs_ = 0;
};

// Writes the end-to-end metrics shared by every workload.
void set_end_to_end(Result& result, double setup_s, const EpochLog& log,
                    double heap_mb, const AccuracyScore& accuracy);

// --- per-layer probes (outside the timed region) ---------------------------

// Equal counter state: every stage of every tree holds the same node
// values. The wire frames also carry the on-path heavy-hitter ledger and
// the overflow-promotion tally, which legitimately depend on arrival order
// and merge order, so the counters are compared directly.
bool same_counters(const FcmFramework& a, const FcmFramework& b);

// Serial FcmFramework::process_batch over `keys` (kPackets).
double probe_kernel_ns_per_pkt(std::span<const FlowKey> keys);

struct MergeProbe {
  double merge_ms = 0.0;
  double merge_gbps = 0.0;
  double copy_gbps = 0.0;  // memcpy of the same bytes: the roofline
};
MergeProbe probe_merge(const FcmFramework& a, const FcmFramework& b);

// framework.cardinality_ms / heavy_hitters_ms / heavy_changes_ms.
void probe_reports(Result& result, const FcmFramework& previous,
                   const FcmFramework& current, std::uint64_t threshold);

// Per-layer self time as a share of the traced wall time, plus the tracing
// overhead.
void set_trace_shares(Result& result, const Tracer& tracer,
                      const TraceSchedule& schedule);

// Mean span time of `name` per call (ms) and per work item (ns); 0 if absent.
double span_ms_per_call(const std::map<std::string, Tracer::Totals>& totals,
                        const std::string& name);
double span_ns_per_item(const std::map<std::string, Tracer::Totals>& totals,
                        const std::string& name);

// --- workloads --------------------------------------------------------------

void run_short_epoch(const Config& config, Result& result);
void run_capture_cached(const Config& config, Result& result);
void run_network_agg(const Config& config, Result& result);

}  // namespace fcmbench
