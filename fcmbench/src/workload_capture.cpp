// capture_cached: the only workload through the datapath. Single thread.
// Each epoch is an in-memory classic-pcap image of 2^18 Ethernet/IPv4/UDP
// header records (Zipf-1.3 over 2^20 source hosts, original lengths 64-1500
// B): decode_capture -> CachedFramework (8192 x 4 cache, kBytes)
// process(span<Packet>) -> snapshot(), heavy_hitters(), cardinality() ->
// reset(). Parsing dominates; the cache absorbs most packets, so the sketch
// kernel does little. Epoch i runs on CPU i of the affinity mask (see
// CpuRotation).
#include <cstddef>
#include <optional>
#include <string>

#include "datapath/cached_framework.h"
#include "datapath/capture_ingest.h"
#include "harness.h"

namespace fcmbench {
namespace {

using fcm::datapath::CachedFramework;
using fcm::flow::Packet;

constexpr std::size_t kRecordHeaderBytes = 16;
constexpr std::size_t kFrameBytes = 14 + 20 + 8;  // Ethernet + IPv4 + UDP

void put_le32(std::vector<std::byte>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::byte>(v >> (8 * i)));
}
void put_le16(std::vector<std::byte>& out, std::uint16_t v) {
  out.push_back(static_cast<std::byte>(v));
  out.push_back(static_cast<std::byte>(v >> 8));
}
void put_be16(std::vector<std::byte>& out, std::uint16_t v) {
  out.push_back(static_cast<std::byte>(v >> 8));
  out.push_back(static_cast<std::byte>(v));
}
void put_be32(std::vector<std::byte>& out, std::uint32_t v) {
  put_be16(out, static_cast<std::uint16_t>(v >> 16));
  put_be16(out, static_cast<std::uint16_t>(v));
}

// One epoch: the capture image plus the packets it encodes.
struct Capture {
  std::vector<std::byte> image;
  std::vector<Packet> packets;
};

Capture make_capture(const std::vector<FlowKey>& keys, std::uint64_t seed) {
  Capture capture;
  capture.image.reserve(24 + keys.size() * (kRecordHeaderBytes + kFrameBytes));
  put_le32(capture.image, 0xa1b2c3d4u);  // classic pcap, microseconds
  put_le16(capture.image, 2);
  put_le16(capture.image, 4);
  put_le32(capture.image, 0);       // thiszone
  put_le32(capture.image, 0);       // sigfigs
  put_le32(capture.image, 65535);   // snaplen
  put_le32(capture.image, 1);       // LINKTYPE_ETHERNET
  fcm::common::Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::uint32_t src = keys[i].value;
    const auto length = static_cast<std::uint32_t>(64 + rng.next_below(1500 - 64 + 1));
    capture.packets.push_back(Packet{keys[i], length, 0});
    put_le32(capture.image, static_cast<std::uint32_t>(i / 1'000'000));
    put_le32(capture.image, static_cast<std::uint32_t>(i % 1'000'000));
    put_le32(capture.image, kFrameBytes);  // captured: headers only
    put_le32(capture.image, length);       // original wire length
    for (int b = 0; b < 12; ++b) capture.image.push_back(std::byte{0x02});
    put_be16(capture.image, 0x0800);
    capture.image.push_back(std::byte{0x45});
    capture.image.push_back(std::byte{0});
    put_be16(capture.image, static_cast<std::uint16_t>(length - 14));
    put_be16(capture.image, static_cast<std::uint16_t>(i));
    put_be16(capture.image, 0);  // flags / fragment offset
    capture.image.push_back(std::byte{64});
    capture.image.push_back(std::byte{17});  // UDP
    put_be16(capture.image, 0);              // checksum (not verified)
    put_be32(capture.image, src);
    put_be32(capture.image, 0x0a000001u);
    put_be16(capture.image, static_cast<std::uint16_t>(src));
    put_be16(capture.image, 53);
    put_be16(capture.image, static_cast<std::uint16_t>(length - 34));
    put_be16(capture.image, 0);
  }
  return capture;
}

}  // namespace

void run_capture_cached(const Config& config, Result& result) {
  const std::size_t flows_n = config.scaled(std::size_t{1} << 20);
  const std::size_t epoch_n = config.scaled(std::size_t{1} << 18);
  const std::size_t pool_n = 4;

  const std::vector<FlowKey> flows = make_flows(flows_n);
  const fcm::common::ZipfSampler zipf(flows_n, 1.3);
  const auto make_epoch = [&](std::uint64_t stream_seed) {
    return make_capture(zipf_stream(flows, zipf, epoch_n, stream_seed),
                        stream_seed + 1);
  };
  std::vector<Capture> pool;
  for (std::size_t p = 0; p < pool_n; ++p) {
    pool.push_back(make_epoch(config.seed * 1000 + 2 * p));
  }
  // Epoch i (0 = warm-up) decodes pool[i % pool_n].
  const auto capture_of = [&](std::size_t index) -> const Capture& {
    return pool[index % pool_n];
  };
  // 0.1% of an epoch's bytes: epoch_n packets of 782 B on average.
  const std::uint64_t threshold = hh_threshold(epoch_n * (64 + 1500) / 2);

  HeapWindow heap;
  fcm::obs::MetricsRegistry registry;
  CachedFramework::Options options;
  options.framework = sketch_options(&registry);
  options.framework.count_mode = FcmFramework::CountMode::kBytes;
  options.framework.heavy_hitter_threshold = threshold;
  options.cache.entries = 8192;
  options.cache.ways = 4;
  options.metrics = &registry;

  std::optional<CachedFramework> cached;
  SetupTimer setup([&] { cached.reset(); }, [&] { cached.emplace(options); });
  setup.round();
  CachedFramework& cf = *cached;

  Tracer tracer;
  tracer.reserve(config.trace ? 1 << 16 : 0);
  TraceSchedule schedule(tracer, config.trace, config.seconds);
  std::uint64_t parse_failures = 0;

  struct EpochResult {
    FcmFramework snapshot;
    std::vector<FlowKey> heavy_hitters;
    double cardinality = 0.0;
    double latency_ms = 0.0;
  };
  CpuRotation cpus;
  const auto run_epoch = [&](const Capture& capture, std::size_t index) {
    cpus.move_to(index);
    fcm::datapath::DecodedCapture decoded;
    {
      Tracer::Scope s(tracer, "datapath.decode_capture", Layer::kDatapath,
                      capture.packets.size());
      decoded = fcm::datapath::decode_capture(capture.image);
    }
    parse_failures += decoded.stats.parse_failures();
    result.check(decoded.stats.parsed == capture.packets.size() &&
                     decoded.stats.parse_failures() == 0,
                 "not every record parsed", static_cast<std::int64_t>(index));
    {
      Tracer::Scope s(tracer, "datapath.process", Layer::kDatapath,
                      decoded.trace.size());
      cf.process(decoded.trace.packets());
    }
    const std::int64_t closed = now_ns();
    std::optional<FcmFramework> snapshot;
    {
      Tracer::Scope s(tracer, "datapath.snapshot", Layer::kDatapath);
      snapshot.emplace(cf.snapshot());
    }
    std::vector<FlowKey> hh;
    {
      Tracer::Scope s(tracer, "datapath.heavy_hitters", Layer::kDatapath);
      hh = cf.heavy_hitters();
    }
    double cardinality = 0.0;
    {
      Tracer::Scope s(tracer, "framework.cardinality", Layer::kFramework);
      cardinality = snapshot->cardinality();
    }
    const double latency_ms = static_cast<double>(now_ns() - closed) / 1e6;
    {
      Tracer::Scope s(tracer, "datapath.reset", Layer::kDatapath);
      cf.reset();
    }
    return EpochResult{std::move(*snapshot), std::move(hh), cardinality,
                       latency_ms};
  };

  run_epoch(capture_of(0), 0);
  EpochLog log;
  std::optional<EpochResult> first;
  std::optional<EpochResult> last;
  std::size_t last_index = 0;
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
      EpochResult epoch = run_epoch(capture_of(index), index);
      log.add(epoch.latency_ms, capture_of(index).packets.size());
      if (!first) {
        first = std::move(epoch);
      } else {
        last = std::move(epoch);
        last_index = index;
      }
    }
    schedule.end_epoch(epoch_n, now_ns());
  }
  tracer.set_enabled(false);
  log.wall_s = static_cast<double>(now_ns() - run_start) * 1e-9;
  const double heap_mb = heap.peak_mb();
  const std::size_t epochs = index;  // warm-up included

  // --- verification and accuracy (untimed) ---------------------------------
  const fcm::datapath::DecodedCapture check =
      fcm::datapath::decode_capture(capture_of(1).image);
  bool same_packets = check.trace.size() == capture_of(1).packets.size();
  for (std::size_t i = 0; same_packets && i < check.trace.size(); ++i) {
    same_packets = check.trace.packets()[i].key == capture_of(1).packets[i].key &&
                   check.trace.packets()[i].bytes == capture_of(1).packets[i].bytes;
  }
  result.check(same_packets,
               "decoded keys or lengths differ from the generated packets");
  FcmFramework::Options serial_options = options.framework;
  serial_options.metrics = nullptr;
  const auto verify = [&](const FcmFramework& snapshot, std::size_t epoch) {
    FcmFramework serial(serial_options);
    serial.process(std::span<const Packet>(capture_of(epoch).packets));
    result.check(same_counters(snapshot, serial),
                 "snapshot counters differ from a cache-off framework",
                 static_cast<std::int64_t>(epoch));
  };
  verify(first->snapshot, 1);
  verify(last->snapshot, last_index);
  AccuracyScore accuracy;
  for (std::size_t a = 0; a < kAccuracyEpochs; ++a) {
    const Capture capture = make_epoch(kAccuracySeed + 2 * a);
    const EpochResult epoch = run_epoch(capture, epochs + a);
    Truth truth;
    for (const Packet& p : capture.packets) truth[p.key] += p.bytes;
    accuracy.add(truth, [&](FlowKey k) { return epoch.snapshot.flow_size(k); },
                 epoch.cardinality, epoch.heavy_hitters, threshold);
  }
  if (!config.trace) setup.round();  // replaces the framework; cf is not used after
  set_end_to_end(result, setup.seconds(), log, heap_mb, accuracy);

  if (!config.trace) return;
  // --- per-layer metrics ----------------------------------------------------
  const auto totals = tracer.totals_by_name();
  result.set("datapath.decode_ns_per_pkt",
             span_ns_per_item(totals, "datapath.decode_capture"));
  result.set("datapath.parse_failures", static_cast<double>(parse_failures));
  result.set("datapath.cache_ns_per_pkt", span_ns_per_item(totals, "datapath.process"));
  const double hits = registry_sum(registry, "fcm_datapath_cache_hits_total");
  const double misses = registry_sum(registry, "fcm_datapath_cache_misses_total");
  result.set("datapath.cache_hit_ratio", hits / (hits + misses));
  result.set("datapath.cache_evictions",
             registry_sum(registry, "fcm_datapath_cache_evictions_total") /
                 static_cast<double>(epochs + kAccuracyEpochs));
  result.set("datapath.snapshot_ms", span_ms_per_call(totals, "datapath.snapshot"));
  std::vector<FlowKey> keys;
  for (const Packet& p : capture_of(last_index).packets) keys.push_back(p.key);
  result.set("fcm.kernel_ns_per_pkt", probe_kernel_ns_per_pkt(keys));
  const MergeProbe merge = probe_merge(first->snapshot, last->snapshot);
  result.set("fcm.merge_ms", merge.merge_ms);
  result.set("fcm.merge_gbps", merge.merge_gbps);
  result.set("fcm.copy_gbps", merge.copy_gbps);
  probe_reports(result, first->snapshot, last->snapshot, threshold);
  set_trace_shares(result, tracer, schedule);
  tracer.write_jsonl(config.span_path);
}

}  // namespace fcmbench
