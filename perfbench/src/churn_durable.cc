// churn-durable: writes beside reads.
//
// Writer (one thread): 50/50 insert/erase updates to a DurableStore over
// real files, one fsync per acknowledged record (the store's only flush
// policy). Every 256 acks it rebuilds the next dynamic Theorem 2 shadow
// from the live set and Publishes it (E25's rebuild protocol, the only
// one the library offers); every 16 publishes it checkpoints.
// Reads (the main thread): 64-request batches at k = 16 through an
// epoch-mode engine with 2 workers, each batch spot-checked against the
// snapshot of the epoch it pinned.
// Setup: the store starts from n = 2^14 checkpointed elements plus a
// 256-record WAL tail written by an untimed prep; setup_s covers
// Recover -> ColdStart -> the first servable engine.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/reduction_options.h"
#include "core/sampled_topk.h"
#include "em/durable_store.h"
#include "em/file_block_device.h"
#include "harness.h"
#include "range1d/dyn_pst.h"
#include "range1d/dyn_range_max.h"
#include "serve/cold_start.h"
#include "serve/engine.h"
#include "serve/epoch.h"
#include "serve/metrics.h"
#include "workloads.h"

namespace topk::perfbench {
namespace {

using DynThm2 = SampledTopK<Range1DProblem, range1d::DynamicPst,
                            range1d::DynamicRangeMax>;
using Engine = serve::QueryEngine<DynThm2>;
using Manager = serve::EpochManager<DynThm2>;
using Store = em::DurableStore<Point1D>;

constexpr size_t kN = size_t{1} << 14;
constexpr size_t kPrepTail = 256;  // WAL records Recover replays
constexpr size_t kUpdatesPerPublish = 256;
constexpr size_t kPublishesPerCheckpoint = 16;
constexpr size_t kCounterPublishes = 16;  // exact writer counters here
constexpr size_t kBatch = 64;
constexpr size_t kBatches = 64;
constexpr size_t kK = 16;
constexpr size_t kReaders = 2;
constexpr size_t kSetupReps = 21;
constexpr size_t kSpotChecks = 4;  // brute-forced slots per batch
constexpr size_t kPageBytes = 4096;
constexpr size_t kReplay = 256;

// Seeded 50/50 insert/erase stream over the live set it maintains.
class UpdateStream {
 public:
  struct Update {
    bool insert = true;
    Point1D element;
    size_t victim = 0;  // erase: index into live()
  };

  UpdateStream(uint64_t seed, std::vector<Point1D> live, uint64_t next_id)
      : rng_(seed), live_(std::move(live)), next_id_(next_id) {}

  Update Next() {
    if (!live_.empty() && rng_.Bernoulli(0.5)) {
      const size_t victim = rng_.Below(live_.size());
      return {false, live_[victim], victim};
    }
    const double x = rng_.NextDouble();
    return {true, {x, rng_.NextDouble() * 1e6, next_id_++}, 0};
  }

  // Applies an acknowledged update to the live set.
  void Apply(const Update& u) {
    if (u.insert) {
      live_.push_back(u.element);
    } else {
      live_[u.victim] = live_.back();
      live_.pop_back();
    }
  }

  const std::vector<Point1D>& live() const { return live_; }

 private:
  Rng rng_;
  std::vector<Point1D> live_;
  uint64_t next_id_;
};

// One open durable store over the three files in `dir`, every storage
// behind a CountingStorage.
struct Durable {
  std::unique_ptr<em::FileStorage> page_file, wal_file, manifest_file;
  std::unique_ptr<CountingStorage> pages, wal, manifest;
  std::unique_ptr<em::FileBlockDevice> device;
  std::unique_ptr<Store> store;

  CountingStorage::Counts Total() const {
    CountingStorage::Counts t;
    for (const CountingStorage* s : {pages.get(), wal.get(), manifest.get()}) {
      t.writes += s->counts().writes;
      t.bytes_written += s->counts().bytes_written;
      t.syncs += s->counts().syncs;
      t.truncates += s->counts().truncates;
    }
    return t;
  }
};

Durable OpenDurable(const std::string& dir) {
  Durable d;
  d.page_file = std::make_unique<em::FileStorage>(dir + "/pages.bin");
  d.wal_file = std::make_unique<em::FileStorage>(dir + "/wal.bin");
  d.manifest_file = std::make_unique<em::FileStorage>(dir + "/manifest.bin");
  d.pages = std::make_unique<CountingStorage>(d.page_file.get());
  d.wal = std::make_unique<CountingStorage>(d.wal_file.get());
  d.manifest = std::make_unique<CountingStorage>(d.manifest_file.get());
  d.device = std::make_unique<em::FileBlockDevice>(d.pages.get(), kPageBytes);
  d.store = std::make_unique<Store>(d.device.get(), d.pages.get(),
                                    d.wal.get(), d.manifest.get());
  return d;
}

// Every epoch's structure draws its own samples (E25 reseeds per
// publish too), so reads average over many sample sets instead of
// inheriting one set's luck for the whole run.
ReductionOptions StructureOptions(uint64_t run_seed, uint64_t epoch_seq) {
  return ReductionOptions{.seed = SubSeed(run_seed, 1000 + epoch_seq)};
}

bool ApplyDurably(Store* store, const UpdateStream::Update& u) {
  return u.insert ? store->Insert(u.element) : store->Erase(u.element.id);
}

// Members in construction order; the engine (a reader of `epochs`) is
// destroyed first.
struct Stack {
  Durable durable;
  std::unique_ptr<Manager> epochs;
  std::unique_ptr<serve::Metrics> metrics;
  std::unique_ptr<Engine> engine;
};

// Element sets published per epoch seq, for the per-batch oracle. The
// writer adds a snapshot before publishing it; the reader drops every
// snapshot older than the epoch its latest batch pinned.
class Snapshots {
 public:
  using Set = std::shared_ptr<const std::vector<Point1D>>;

  void Put(uint64_t seq, const std::vector<Point1D>& elements) {
    Set set = std::make_shared<const std::vector<Point1D>>(elements);
    const std::lock_guard<std::mutex> lock(mu_);
    by_seq_[seq] = std::move(set);
  }

  Set TakeAtLeast(uint64_t seq) {
    const std::lock_guard<std::mutex> lock(mu_);
    by_seq_.erase(by_seq_.begin(), by_seq_.lower_bound(seq));
    const auto it = by_seq_.find(seq);
    return it == by_seq_.end() ? nullptr : it->second;
  }

 private:
  std::mutex mu_;
  std::map<uint64_t, Set> by_seq_;  // guarded by mu_
};

// What the writer measured in one phase of the run.
struct WriterPhase {
  Samples ack_us;
  Samples lag_ms;  // first ack of a batch -> its Publish returned
  uint64_t acks = 0;
  uint64_t unacked = 0;
  uint64_t user_bytes = 0;
  size_t live_epochs_max = 0;
  CountingStorage::Counts io_start, io_end;
  CountingStorage::Counts wal_start, wal_end;
  Clock::time_point start, end;

  double updates_per_s() const {
    const double s = Seconds(start, end);
    return s > 0 ? static_cast<double>(acks) / s : 0.0;
  }
};

CountingStorage::Counts Minus(const CountingStorage::Counts& a,
                              const CountingStorage::Counts& b) {
  return {a.writes - b.writes, a.bytes_written - b.bytes_written,
          a.syncs - b.syncs, a.truncates - b.truncates};
}

}  // namespace

void RunChurnDurable(const Args& args, Report* report) {
  if (args.tmp_dir.empty()) {
    std::fprintf(stderr, "churn-durable needs --tmp-dir\n");
    std::exit(2);
  }
  for (const char* f : {"/pages.bin", "/wal.bin", "/manifest.bin"}) {
    std::remove((args.tmp_dir + f).c_str());
  }
  Rng rng(SubSeed(args.seed, 3));
  UpdateStream stream(SubSeed(args.seed, 33), UniformPoints(kN, &rng),
                      kN + 1);
  std::vector<std::vector<Request>> batches(kBatches);
  for (std::vector<Request>& b : batches) {
    for (size_t j = 0; j < kBatch; ++j) b.push_back({UniformRange(&rng), kK});
  }

  // Prep (untimed): a prior process life checkpoints n elements and
  // leaves kPrepTail acknowledged updates in the WAL.
  {
    Durable d = OpenDurable(args.tmp_dir);
    d.store->Recover();
    for (const Point1D& p : stream.live()) {
      if (!d.store->Insert(p)) OracleFail("prep insert not acknowledged");
    }
    if (!d.store->Checkpoint()) OracleFail("prep checkpoint failed");
    for (size_t u = 0; u < kPrepTail; ++u) {
      const UpdateStream::Update up = stream.Next();
      if (!ApplyDurably(d.store.get(), up)) OracleFail("prep update failed");
      stream.Apply(up);
    }
  }

  std::unique_ptr<trace::Tracer> tracer, writer_tracer;
  if (args.trace) {
    tracer = std::make_unique<trace::Tracer>(kTraceCapacity);
    writer_tracer = std::make_unique<trace::Tracer>(kTraceCapacity);
  }
  Samples setup_s, build_s;
  double rss_mb = 0;
  uint64_t replayed = 0;
  Stack stack = RunSetups(
      kSetupReps,
      [&](double* build) {
        Stack s;
        s.durable = OpenDurable(args.tmp_dir);
        {
          trace::Span span(tracer.get(), "em.Recover");
          replayed = s.durable.store->Recover().wal_records_replayed;
        }
        std::vector<Point1D> elements = s.durable.store->Elements();
        const auto t0 = Clock::now();
        {
          trace::Span span(tracer.get(), "serve.ColdStart");
          s.epochs = serve::ColdStart(
              std::move(elements), [&args](std::vector<Point1D> v) {
                return DynThm2(std::move(v), StructureOptions(args.seed, 1));
              });
        }
        *build = Seconds(t0, Clock::now());
        s.metrics = std::make_unique<serve::Metrics>();
        s.engine = std::make_unique<Engine>(
            s.epochs.get(), Engine::Options{.num_threads = kReaders},
            s.metrics.get());
        return s;
      },
      &setup_s, &build_s, &rss_mb);
  std::printf("setup %zu reps: median %.4f s (build %.4f s), replayed %llu\n",
              setup_s.size(), setup_s.Median(), build_s.Median(),
              static_cast<unsigned long long>(replayed));
  if (stack.durable.store->size() != stream.live().size()) {
    OracleFail("recovered store size differs from the prep's live set");
  }

  Snapshots snapshots;
  snapshots.Put(1, stream.live());
  std::vector<Engine::Result> results;
  size_t cursor = 0;
  size_t spot = 0;
  auto send = [&](size_t, trace::Span*) {
    stack.engine->QueryBatchInto(batches[cursor++ % kBatches], &results);
    return kBatch;
  };
  auto check = [&](size_t) {
    const std::vector<Request>& batch = batches[(cursor - 1) % kBatches];
    report->attempted += kBatch;
    for (const Engine::Result& r : results) {
      if (!r.ok()) ++report->failed;
    }
    const uint64_t seq = stack.engine->last_batch_epoch();
    const Snapshots::Set snap = snapshots.TakeAtLeast(seq);
    if (snap == nullptr) OracleFail("no snapshot for epoch " + std::to_string(seq));
    for (size_t j = 0; j < kSpotChecks; ++j) {
      const size_t slot = spot++ % kBatch;
      if (results[slot].ok() &&
          !SameIds(results[slot].elements,
                   BruteTopK(*snap, batch[slot].predicate, kK))) {
        OracleFail("churn-durable epoch " + std::to_string(seq) + " slot " +
                   std::to_string(slot));
      }
    }
  };

  // One read pass before the writer starts: every batch answers from
  // epoch 1, so these QueryStats totals are exact for the seed.
  for (size_t b = 0; b < kBatches; ++b) {
    send(b, nullptr);
    check(b);
  }
  std::printf("counters.reads %s\n",
              StatsJson(stack.metrics->Snapshot().stats).c_str());

  // phase: 0 = untraced, 1 = traced (traced runs only), 2 = stop.
  std::atomic<int> phase{0};
  WriterPhase writer_phase[2];
  std::string writer_counters;
  std::thread writer([&] {
    Store* store = stack.durable.store.get();
    Manager* epochs = stack.epochs.get();
    const CountingStorage::Counts io0 = stack.durable.Total();
    const CountingStorage::Counts wal0 = stack.durable.wal->counts();
    size_t publishes = 0, checkpoints = 0;
    uint64_t acks_total = 0, unacked_total = 0;
    int cur = 0;
    auto open_phase = [&](int p) {
      writer_phase[p].start = Clock::now();
      writer_phase[p].io_start = stack.durable.Total();
      writer_phase[p].wal_start = stack.durable.wal->counts();
    };
    auto close_phase = [&](int p) {
      writer_phase[p].end = Clock::now();
      writer_phase[p].io_end = stack.durable.Total();
      writer_phase[p].wal_end = stack.durable.wal->counts();
    };
    open_phase(0);
    for (;;) {
      const int p = phase.load(std::memory_order_acquire);
      if (p != cur) {
        close_phase(cur);
        if (p == 2) break;
        cur = p;
        open_phase(cur);
      }
      WriterPhase& w = writer_phase[cur];
      trace::Tracer* t =
          cur == 1 && !TracerFull(writer_tracer.get()) ? writer_tracer.get()
                                                       : nullptr;
      Clock::time_point first_ack;
      for (size_t acked = 0; acked < kUpdatesPerPublish;) {
        const UpdateStream::Update u = stream.Next();
        const auto t0 = Clock::now();
        bool ok = false;
        {
          trace::Span span(t, u.insert ? "em.Insert" : "em.Erase");
          ok = ApplyDurably(store, u);
        }
        const auto t1 = Clock::now();
        if (!ok) {
          ++w.unacked;
          ++unacked_total;
          continue;
        }
        stream.Apply(u);
        if (acked++ == 0) first_ack = t1;
        ++w.acks;
        ++acks_total;
        w.ack_us.Add(Seconds(t0, t1) * 1e6);
        w.user_bytes += u.insert ? sizeof(Point1D) : sizeof(uint64_t);
      }
      const uint64_t next_seq = epochs->current_seq() + 1;
      std::optional<DynThm2> shadow;
      {
        trace::Span span(t, "epoch.ShadowBuild");
        shadow.emplace(stream.live(), StructureOptions(args.seed, next_seq));
      }
      snapshots.Put(next_seq, stream.live());
      uint64_t seq = 0;
      {
        trace::Span span(t, "epoch.Publish");
        seq = epochs->Publish(std::move(*shadow));
      }
      w.lag_ms.Add(Seconds(first_ack, Clock::now()) * 1e3);
      if (seq != next_seq) OracleFail("publish seq out of order");
      w.live_epochs_max = std::max(w.live_epochs_max, epochs->live_epochs());
      ++publishes;
      if (publishes % kPublishesPerCheckpoint == 0) {
        trace::Span span(t, "em.Checkpoint");
        if (store->Checkpoint()) {
          ++checkpoints;
        } else {
          // A failed operation; the previous checkpoint stays
          // authoritative.
          ++w.unacked;
          ++unacked_total;
        }
      }
      if (publishes == kCounterPublishes) {
        const CountingStorage::Counts io = Minus(stack.durable.Total(), io0);
        const CountingStorage::Counts wal =
            Minus(stack.durable.wal->counts(), wal0);
        writer_counters =
            "{\"publishes\":" + std::to_string(publishes) +
            ",\"acks\":" + std::to_string(acks_total) +
            ",\"unacked\":" + std::to_string(unacked_total) +
            ",\"checkpoints\":" + std::to_string(checkpoints) +
            ",\"wal_records\":" + std::to_string(wal.writes) +
            ",\"wal_bytes\":" + std::to_string(wal.bytes_written) +
            ",\"fsyncs\":" + std::to_string(io.syncs) +
            ",\"bytes_written\":" + std::to_string(io.bytes_written) +
            ",\"storage_writes\":" + std::to_string(io.writes) +
            ",\"truncates\":" + std::to_string(io.truncates) + "}";
      }
    }
  });

  LoopStats untraced, traced;
  untraced = ClosedLoop(args.trace ? args.seconds / 2 : args.seconds, nullptr,
                        "", send, check);
  if (args.trace) {
    phase.store(1, std::memory_order_release);
    traced = ClosedLoop(args.seconds / 2, tracer.get(),
                        "serve.QueryBatchInto", send, check);
  }
  phase.store(2, std::memory_order_release);
  writer.join();

  // Writes count toward the attempts; unacknowledged ones are failures.
  for (const WriterPhase& w : writer_phase) {
    report->attempted += w.acks + w.unacked;
    report->failed += w.unacked;
  }
  std::printf("counters %s\n", writer_counters.empty()
                                   ? "{\"note\":\"run too short\"}"
                                   : writer_counters.c_str());

  // End-of-run oracle: retired epochs drain to one, and recovering the
  // final files reproduces the live set exactly.
  stack.epochs->CollectRetired();
  if (stack.epochs->live_epochs() != 1) {
    OracleFail("retired epochs did not drain: " +
               std::to_string(stack.epochs->live_epochs()));
  }
  {
    Durable check_store = OpenDurable(args.tmp_dir);
    check_store.store->Recover();
    std::vector<Point1D> live = stream.live();
    std::sort(live.begin(), live.end(),
              [](const Point1D& a, const Point1D& b) { return a.id < b.id; });
    const std::vector<Point1D> recovered = check_store.store->Elements();
    bool same = recovered.size() == live.size();
    for (size_t i = 0; same && i < live.size(); ++i) {
      same = recovered[i].id == live[i].id && recovered[i].x == live[i].x &&
             recovered[i].weight == live[i].weight;
    }
    if (!same) OracleFail("Recover on the final files differs from the live set");
  }

  const WriterPhase& w0 = writer_phase[0];
  std::printf("writer %llu acks, %.1f updates/s, write p50 %.1f us, "
              "publish lag p50 %.2f ms p99 %.2f ms\n",
              static_cast<unsigned long long>(w0.acks), w0.updates_per_s(),
              w0.ack_us.Median(), w0.lag_ms.Median(),
              w0.lag_ms.Percentile(99));
  PrintLatency("write_ack_us", w0.ack_us, "us");
  PrintLatency("publish_lag_ms", w0.lag_ms, "ms");

  if (!args.trace) {
    SetReadEndToEnd(report, untraced, setup_s, rss_mb);
    return;
  }

  SetTracedRunReads(report, untraced, traced);
  report->Set("churn.updates_per_s", w0.updates_per_s());
  report->Set("churn.write_p50_us", w0.ack_us.Median());
  report->Set("churn.publish_p50_ms", w0.lag_ms.Median());
  report->Set("churn.publish_p99_ms", w0.lag_ms.Percentile(99));

  const WriterPhase& w1 = writer_phase[1];
  Samples ack_us = SpanUs(*writer_tracer, "em.Insert");
  ack_us.Append(SpanUs(*writer_tracer, "em.Erase"));
  const double acks = static_cast<double>(w1.acks);
  const CountingStorage::Counts io = Minus(w1.io_end, w1.io_start);
  const CountingStorage::Counts wal = Minus(w1.wal_end, w1.wal_start);
  report->Set("em.ack_us_p50", ack_us.Median());
  report->Set("em.ack_us_p99", ack_us.Percentile(99));
  report->Set("em.fsyncs_per_ack", static_cast<double>(io.syncs) / acks);
  report->Set("em.wal_bytes_per_ack",
              static_cast<double>(wal.bytes_written) / acks);
  report->Set("em.bytes_written_per_user_byte",
              static_cast<double>(io.bytes_written) /
                  static_cast<double>(w1.user_bytes));
  report->Set("em.checkpoint_ms_p50",
              SpanUs(*writer_tracer, "em.Checkpoint").Median() / 1e3);
  report->Set("em.recover_ms", SpanUs(*tracer, "em.Recover").Median() / 1e3);
  report->Set("em.replayed_records", static_cast<double>(replayed));
  report->Set("epoch.publish_us_p50",
              SpanUs(*writer_tracer, "epoch.Publish").Median());
  report->Set("epoch.shadow_build_ms_p50",
              SpanUs(*writer_tracer, "epoch.ShadowBuild").Median() / 1e3);
  report->Set("epoch.live_epochs_max",
              static_cast<double>(w1.live_epochs_max));

  // Layer replays against the final epoch (the writer has stopped).
  std::vector<Request> replay_all;
  for (size_t i = 0; replay_all.size() < kReplay; ++i) {
    replay_all.push_back(batches[i / kBatch][i % kBatch]);
  }
  const size_t slot = stack.epochs->RegisterReader();
  Replay replay;
  {
    const auto pin = stack.epochs->Acquire(slot);
    replay = ReplayDirect(*pin.get(), replay_all, nullptr, tracer.get(),
                          "core.QueryInto");
  }
  std::printf("counters.replay (final epoch) %s\n",
              StatsJson(replay.stats).c_str());
  ReplaySubstrates(stream.live(), replay_all, replay.tau, tracer.get(),
                   report);
  ReplayDispatch(stack.engine.get(), replay_all, tracer.get());

  SetCoreMetrics(report, *tracer, "core.QueryInto", replay, build_s.Median());
  SetDispatch(report, *tracer, "core.QueryInto");
  const double mean_s = SpanUs(*tracer, "core.QueryInto").Mean() / 1e6;
  report->Set("serve.scaling_eff",
              untraced.qps() * mean_s / static_cast<double>(kReaders));
  report->Set("epoch.acquire_ns",
              AcquireNs(stack.epochs.get(), slot, tracer.get()));
  WriteChromeTrace(args.trace_out,
                   {{"main", tracer.get()}, {"writer", writer_tracer.get()}});
}

}  // namespace topk::perfbench
