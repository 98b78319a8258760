// network_agg: network-wide aggregation, single thread, 4 vantages. Vantage
// frameworks (vantage_options()) are filled untimed from 2^16-packet slices
// of Zipf-1.1 traffic over 2^20 flows. Per epoch the timed work is, for each
// vantage, WireCodec::serialize -> InProcessTransport::send (which calls
// AggregationService::deliver), then a fixed burst of flow_size lookups on
// query_plane().current() with the epoch's keys in arrival order. Wire
// encode/decode, merge, publish and query dominate; parse and the ingest
// kernel are bypassed. Heavy change is on, analyze_on_publish off.
// Each vantage's snapshot is serialized and delivered on its own CPU, as the
// service's per-vantage receive threads would run in a deployment (see
// CpuRotation).
#include <memory>
#include <string>
#include <utility>

#include "agg/agg_service.h"
#include "harness.h"

namespace fcmbench {
namespace {

using fcm::agg::AggregationService;
using fcm::agg::DeliveryStatus;
using fcm::agg::InProcessTransport;
using fcm::agg::NetworkView;
using fcm::agg::SnapshotEnvelope;
using fcm::agg::WireCodec;

constexpr std::size_t kVantages = 4;
constexpr std::size_t kLookups = 16384;

// One epoch of network traffic: vantage v saw slice v of `keys`.
struct NetworkEpoch {
  std::vector<FlowKey> keys;
  std::vector<FcmFramework> vantages;
};

}  // namespace

void run_network_agg(const Config& config, Result& result) {
  const std::size_t flows_n = config.scaled(std::size_t{1} << 20);
  const std::size_t slice_n = config.scaled(std::size_t{1} << 16);
  const std::size_t pool_n = 2;
  const std::uint64_t threshold = hh_threshold(slice_n * kVantages);
  const std::size_t lookups = std::min(kLookups, slice_n);

  fcm::obs::MetricsRegistry registry;
  AggregationService::Options options;
  options.reference = sketch_options(&registry);
  options.reference.heavy_hitter_threshold = threshold;
  options.vantage_count = kVantages;
  options.first_epoch = 1;
  options.heavy_change_threshold = threshold;
  options.analyze_on_publish = false;
  options.metrics = &registry;

  const FcmFramework::Options vantage_options =
      AggregationService(options).vantage_options();
  const std::vector<FlowKey> flows = make_flows(flows_n);
  const fcm::common::ZipfSampler zipf(flows_n, 1.1);
  const auto make_epoch = [&](std::uint64_t stream_seed) {
    NetworkEpoch traffic;
    traffic.keys = zipf_stream(flows, zipf, slice_n * kVantages, stream_seed);
    for (std::size_t v = 0; v < kVantages; ++v) {
      traffic.vantages.emplace_back(vantage_options)
          .process_batch(std::span<const FlowKey>(traffic.keys)
                             .subspan(v * slice_n, slice_n));
    }
    return traffic;
  };
  std::vector<NetworkEpoch> pool;
  for (std::size_t p = 0; p < pool_n; ++p) {
    pool.push_back(make_epoch(config.seed * 1000 + p));
  }
  // Service epoch e (1 = warm-up) carries pool[e % pool_n].
  const auto epoch_of = [&](std::uint64_t epoch) -> const NetworkEpoch& {
    return pool[epoch % pool_n];
  };

  HeapWindow heap;
  std::unique_ptr<AggregationService> service;
  std::unique_ptr<InProcessTransport> transport;
  SetupTimer setup(
      [&] {
        transport.reset();
        service.reset();
      },
      [&] {
        service = std::make_unique<AggregationService>(options);
        transport = std::make_unique<InProcessTransport>(*service);
      });
  setup.round();

  CpuRotation cpus;
  Tracer tracer;
  tracer.reserve(config.trace ? 1 << 16 : 0);
  TraceSchedule schedule(tracer, config.trace, config.seconds);
  std::size_t snapshot_bytes = 0;

  // Delivers `traffic` as `epoch` and returns the published view with the
  // close-to-readable latency, or a null view on failure.
  const auto run_epoch = [&](const NetworkEpoch& traffic, std::uint64_t epoch)
      -> std::pair<std::shared_ptr<const NetworkView>, double> {
    const std::int64_t closed = now_ns();
    bool accepted = true;
    for (std::size_t v = 0; v < kVantages; ++v) {
      cpus.move_to(v);
      SnapshotEnvelope envelope;
      envelope.vantage_id = static_cast<std::uint32_t>(v);
      envelope.epoch = epoch;
      {
        Tracer::Scope s(tracer, "agg.serialize", Layer::kAgg);
        envelope.payload = WireCodec::serialize(traffic.vantages[v]);
      }
      snapshot_bytes = envelope.payload.size();
      DeliveryStatus status = DeliveryStatus::kAccepted;
      {
        Tracer::Scope s(tracer,
                        v + 1 == kVantages ? "agg.publish_deliver" : "agg.deliver",
                        Layer::kAgg);
        status = transport->send(std::move(envelope));
      }
      accepted = accepted && status == DeliveryStatus::kAccepted;
    }
    std::shared_ptr<const NetworkView> view;
    {
      Tracer::Scope s(tracer, "agg.current", Layer::kAgg);
      view = service->query_plane().current();
    }
    const std::int64_t readable = now_ns();
    const bool published = view && view->epoch == epoch &&
                           view->vantages.size() == kVantages;
    std::size_t zeros = 0;
    if (published) {
      Tracer::Scope s(tracer, "agg.query", Layer::kAgg, lookups);
      for (std::size_t i = 0; i < lookups; ++i) {
        zeros += view->network.flow_size(traffic.keys[i]) == 0 ? 1 : 0;
      }
    }
    // Every looked-up key occurred this epoch and FCM never underestimates,
    // so no lookup may read 0.
    result.check(accepted && published && zeros == 0,
                 "not accepted, published and queryable",
                 static_cast<std::int64_t>(epoch));
    if (!published) view.reset();
    return {view, static_cast<double>(readable - closed) / 1e6};
  };

  run_epoch(epoch_of(1), 1);
  EpochLog log;
  std::shared_ptr<const NetworkView> first;
  std::shared_ptr<const NetworkView> last;
  heap.start_timed();
  const std::int64_t run_start = now_ns();
  const auto budget_ns = static_cast<std::int64_t>(config.seconds * 1e9);
  std::uint64_t epoch = 2;
  for (;; ++epoch) {
    const std::int64_t start = now_ns();
    if (start - run_start >= budget_ns && epoch > 3) break;
    schedule.begin_epoch(start, run_start);
    tracer.set_trace_id(epoch);
    {
      Tracer::Scope epoch_span(tracer, "bench.epoch", Layer::kBench);
      auto [view, latency_ms] = run_epoch(epoch_of(epoch), epoch);
      if (view) {
        log.add(latency_ms, slice_n * kVantages);
        if (!first) {
          first = std::move(view);
        } else {
          last = std::move(view);
        }
      }
    }
    schedule.end_epoch(slice_n * kVantages, now_ns());
  }
  tracer.set_enabled(false);
  log.wall_s = static_cast<double>(now_ns() - run_start) * 1e-9;
  const double heap_mb = heap.peak_mb();

  // --- verification and accuracy (untimed) ---------------------------------
  FcmFramework::Options serial_options = options.reference;
  serial_options.metrics = nullptr;
  for (const auto& view : {first, last}) {
    result.check(view != nullptr, "a timed epoch's view is missing");
    if (!view) continue;
    FcmFramework serial(serial_options);
    serial.process_batch(epoch_of(view->epoch).keys);
    result.check(same_counters(view->network, serial),
                 "network view differs from a serial framework fed every "
                 "vantage's traffic",
                 static_cast<std::int64_t>(view->epoch));
  }
  AccuracyScore accuracy;
  for (std::size_t a = 0; a < kAccuracyEpochs; ++a) {
    const NetworkEpoch traffic = make_epoch(kAccuracySeed + a);
    const auto [view, latency_ms] = run_epoch(traffic, epoch + a);
    if (!view) continue;
    accuracy.add(count_truth(traffic.keys),
                 [&](FlowKey k) { return view->network.flow_size(k); },
                 view->cardinality, view->heavy_hitters, threshold);
  }
  if (!config.trace) setup.round();  // replaces the service; run_epoch is not used after
  set_end_to_end(result, setup.seconds(), log, heap_mb, accuracy);

  if (!config.trace || !first || !last) return;
  // --- per-layer metrics ----------------------------------------------------
  const auto totals = tracer.totals_by_name();
  result.set("agg.serialize_ms", span_ms_per_call(totals, "agg.serialize"));
  result.set("agg.deliver_ms", span_ms_per_call(totals, "agg.deliver"));
  result.set("agg.publish_deliver_ms", span_ms_per_call(totals, "agg.publish_deliver"));
  result.set("agg.snapshot_bytes", static_cast<double>(snapshot_bytes));
  result.set("agg.query_ns", span_ns_per_item(totals, "agg.query"));
  const std::vector<std::byte> payload = WireCodec::serialize(pool[0].vantages[0]);
  std::uint64_t sink = 0;
  result.set("agg.peek_us", median_seconds(9, [&] {
               for (int i = 0; i < 1000; ++i) sink += WireCodec::peek(payload).payload_bytes;
             }) * 1e3);
  result.set("agg.deserialize_ms", median_seconds(9, [&] {
               sink += WireCodec::deserialize_framework(payload, nullptr).memory_bytes();
             }) * 1e3);
  result.check(sink > 0, "wire probes produced nothing");
  result.set("fcm.kernel_ns_per_pkt", probe_kernel_ns_per_pkt(pool[0].keys));
  const MergeProbe merge = probe_merge(pool[0].vantages[0], pool[0].vantages[1]);
  result.set("fcm.merge_ms", merge.merge_ms);
  result.set("fcm.merge_gbps", merge.merge_gbps);
  result.set("fcm.copy_gbps", merge.copy_gbps);
  probe_reports(result, first->network, last->network, threshold);
  set_trace_shares(result, tracer, schedule);
  tracer.write_jsonl(config.span_path);
}

}  // namespace fcmbench
