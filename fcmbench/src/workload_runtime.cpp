// short_epoch: the sharded runtime (2 shards, so driver + 2 workers +
// coordinator = 4 threads) on CAIDA-like Zipf-1.1 traffic over 2^20 flows,
// cache off, kPackets, heavy change on. Each 2^16-packet epoch is ingested
// in 8192-packet chunks and closed by a blocking rotate(), so drain, N-way
// merge and report take most of the wall time.
#include <memory>
#include <optional>
#include <string>

#include "harness.h"
#include "runtime/sharded_framework.h"

namespace fcmbench {
namespace {

using Runtime = fcm::runtime::ShardedFcmFramework;

constexpr std::size_t kChunk = 8192;

}  // namespace

void run_short_epoch(const Config& config, Result& result) {
  const std::size_t flows_n = config.scaled(std::size_t{1} << 20);
  const std::size_t epoch_n = config.scaled(std::size_t{1} << 16);
  // Distinct epochs cycled through by the timed loop.
  const std::size_t pool_n = 64;
  const std::uint64_t threshold = hh_threshold(epoch_n);

  const std::vector<FlowKey> flows = make_flows(flows_n);
  const fcm::common::ZipfSampler zipf(flows_n, 1.1);
  std::vector<std::vector<FlowKey>> pool;
  for (std::size_t p = 0; p < pool_n; ++p) {
    pool.push_back(zipf_stream(flows, zipf, epoch_n, config.seed * 1000 + p));
  }
  // Runtime epoch i carries pool[i % pool_n]; epoch 0 is the warm-up.
  const auto epoch_keys = [&](std::size_t index) -> const std::vector<FlowKey>& {
    return pool[index % pool_n];
  };

  HeapWindow heap;
  fcm::obs::MetricsRegistry registry;
  Runtime::Options options;
  options.framework = sketch_options(&registry);
  options.framework.heavy_hitter_threshold = threshold;
  options.shard_count = 2;
  options.metrics = &registry;
  options.heavy_change_threshold = threshold;

  std::unique_ptr<Runtime> runtime;
  SetupTimer setup([&] { runtime.reset(); },
                   [&] { runtime = std::make_unique<Runtime>(options); });
  setup.round();
  Runtime& rt = *runtime;

  rt.ingest(std::span<const FlowKey>(epoch_keys(0)));
  const Runtime::EpochReport warm = rt.rotate();
  result.check(warm.packets == epoch_n, "warm-up epoch lost packets");

  Tracer tracer;
  tracer.reserve(config.trace ? 1 << 16 : 0);
  TraceSchedule schedule(tracer, config.trace, config.seconds);
  EpochLog log;
  double merge_s_sum = 0.0;
  double imbalance_sum = 0.0;
  std::optional<FcmFramework> first;  // first timed epoch's result

  heap.start_timed();
  const std::int64_t run_start = now_ns();
  const auto budget_ns = static_cast<std::int64_t>(config.seconds * 1e9);
  std::size_t index = 1;
  for (;; ++index) {
    const std::int64_t start = now_ns();
    if (start - run_start >= budget_ns && index > 2) break;
    schedule.begin_epoch(start, run_start);
    tracer.set_trace_id(index);
    {
      Tracer::Scope epoch_span(tracer, "bench.epoch", Layer::kBench);
      const std::vector<FlowKey>& keys = epoch_keys(index);
      for (std::size_t off = 0; off < keys.size(); off += kChunk) {
        const std::size_t n = std::min(kChunk, keys.size() - off);
        Tracer::Scope s(tracer, "runtime.ingest", Layer::kRuntime, n);
        rt.ingest(std::span<const FlowKey>(keys.data() + off, n));
      }
      const std::int64_t closed = now_ns();
      Runtime::EpochReport report;
      {
        Tracer::Scope s(tracer, "runtime.rotate", Layer::kRuntime);
        report = rt.rotate();
      }
      log.add(static_cast<double>(now_ns() - closed) / 1e6, report.packets);
      result.check(report.index == index && report.packets == epoch_n,
                   "report out of order or packets lost",
                   static_cast<std::int64_t>(index));
      merge_s_sum += report.merge_seconds;
      imbalance_sum += report.fanout_imbalance;
      if (index == 1) {
        Tracer::Scope s(tracer, "runtime.merged_epoch", Layer::kRuntime);
        first = rt.merged_epoch(0);
      }
    }
    schedule.end_epoch(epoch_n, now_ns());
  }
  tracer.set_enabled(false);
  log.wall_s = static_cast<double>(now_ns() - run_start) * 1e-9;
  const double heap_mb = heap.peak_mb();
  const std::size_t last = index - 1;

  // --- verification and accuracy (untimed) ---------------------------------
  const FcmFramework last_fw = rt.merged_epoch(0);
  FcmFramework::Options serial_options = options.framework;
  serial_options.metrics = nullptr;
  const auto verify = [&](const FcmFramework& merged, std::size_t index) {
    FcmFramework serial(serial_options);
    serial.process_batch(epoch_keys(index));
    result.check(same_counters(merged, serial),
                 "merged counters differ from the serial reference",
                 static_cast<std::int64_t>(index));
  };
  verify(*first, 1);
  verify(last_fw, last);
  AccuracyScore accuracy;
  for (std::size_t a = 0; a < kAccuracyEpochs; ++a) {
    const std::vector<FlowKey> keys =
        zipf_stream(flows, zipf, epoch_n, kAccuracySeed + a);
    rt.ingest(std::span<const FlowKey>(keys));
    const Runtime::EpochReport report = rt.rotate();
    const FcmFramework merged = rt.merged_epoch(0);
    accuracy.add(count_truth(keys),
                 [&](FlowKey k) { return merged.flow_size(k); },
                 report.cardinality, report.heavy_hitters, threshold);
  }
  if (!config.trace) setup.round();  // replaces the runtime; rt is not used after
  set_end_to_end(result, setup.seconds(), log, heap_mb, accuracy);

  if (!config.trace) return;
  // --- per-layer metrics ----------------------------------------------------
  const auto totals = tracer.totals_by_name();
  const double reports = static_cast<double>(log.latency_ms.size());
  result.set("runtime.ingest_ns_per_pkt", span_ns_per_item(totals, "runtime.ingest"));
  const double blocks = registry_sum(registry, "fcm_runtime_blocks_published_total");
  result.set("runtime.backpressure_spins_per_block",
             registry_sum(registry, "fcm_runtime_backpressure_spins_total") / blocks);
  result.set("runtime.blocks_published",
             blocks / registry_sum(registry, "fcm_runtime_epochs_merged_total"));
  result.set("runtime.fanout_imbalance", imbalance_sum / reports);
  double high_water = 0.0;
  for (const double hw : rt.queue_high_water()) high_water = std::max(high_water, hw);
  result.set("runtime.queue_high_water_blocks", high_water);
  result.set("runtime.rotate_ms", span_ms_per_call(totals, "runtime.rotate"));
  result.set("runtime.merge_ms", merge_s_sum / reports * 1e3);
  rt.stop();  // the probes below run with the runtime's threads joined
  result.set("fcm.kernel_ns_per_pkt", probe_kernel_ns_per_pkt(epoch_keys(last)));
  const MergeProbe merge = probe_merge(*first, last_fw);
  result.set("fcm.merge_ms", merge.merge_ms);
  result.set("fcm.merge_gbps", merge.merge_gbps);
  result.set("fcm.copy_gbps", merge.copy_gbps);
  probe_reports(result, *first, last_fw, threshold);
  set_trace_shares(result, tracer, schedule);
  tracer.write_jsonl(config.span_path);
}

}  // namespace fcmbench
