// knn-memory and knn-cold-pool: a closed loop of kClients threads over
// an in-process QueryService on a durable XJB index, followed by an
// open-loop write phase. The two differ only in the shared pool:
// knn-memory's holds the whole index and misses cost nothing; the cold
// pool holds a tenth of the index pages and each miss sleeps the
// simulated 200 us disk read.

#include <stdlib.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <optional>
#include <thread>

#include "core/durable_index.h"
#include "service/query_service.h"
#include "trace.h"
#include "util/random.h"
#include "workloads.h"

namespace bwperf {

namespace {

using bw::service::QueryService;

constexpr size_t kClients = 4;
/// Offered rate of the write phase (inserts/s): low enough that the
/// service's writer is mostly idle, so an insert's latency is its own
/// apply and commit, and spread over write_ops / kInsertRate seconds so
/// the figure averages over the disk's slower moments.
constexpr double kInsertRate = 200;
constexpr double kForever = std::numeric_limits<double>::infinity();

/// What one closed-loop k-NN phase measured, merged over its clients.
struct KnnPhase {
  std::vector<double> latency_us;   // client-observed.
  std::vector<double> queue_us;     // QueryMetrics.queue_wait_us.
  std::vector<double> exec_us;      // QueryMetrics.latency_us.
  std::vector<double> dispatch_us;  // client - queue - exec.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double elapsed_s = 0;

  double qps() const {
    return elapsed_s > 0 ? latency_us.size() / elapsed_s : 0.0;
  }
  void Merge(const KnnPhase& other) {
    for (auto [to, from] :
         {std::pair{&latency_us, &other.latency_us},
          std::pair{&queue_us, &other.queue_us},
          std::pair{&exec_us, &other.exec_us},
          std::pair{&dispatch_us, &other.dispatch_us}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
    attempted += other.attempted;
    failed += other.failed;
  }
};

void CheckKnnAnswer(const Inputs& inputs, size_t q, size_t k,
                    std::vector<bw::gist::Neighbor> answer,
                    std::atomic<bool>* inject_swap, Checker* checker) {
  if (inject_swap != nullptr && inject_swap->exchange(false)) {
    // Self test: drop the nearest neighbour and append the (k+1)-th.
    const Exact& next = inputs.exact[q][k];
    answer.erase(answer.begin());
    answer.push_back({next.rid, next.distance, bw::pages::kInvalidPageId});
  }
  const std::string error = inputs.oracle->CheckExact(
      inputs.query(q).data(), answer, inputs.exact[q], k);
  if (!error.empty()) {
    checker->Fail("k-NN of focus " + std::to_string(inputs.foci[q]) + ": " +
                  error);
  }
}

/// kClients closed-loop clients issue k-NN of random foci for `seconds`.
/// Every answer is checked against the exact one, and every response's
/// pool counters against its node accesses.
/// A traced query's pool misses are recorded as a pages.miss_wait child
/// of its gist.search span, io_delay_us each (the simulated read every
/// miss sleeps), so the split charges them to pages rather than gist.
KnnPhase RunKnnPhase(QueryService* service, const Inputs& inputs,
                     const RunOptions& options, uint32_t io_delay_us,
                     double seconds, uint64_t salt,
                     std::atomic<bool>* inject_swap, Checker* checker) {
  std::vector<KnnPhase> per_client(kClients);
  const uint64_t start = NowNs();
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      KnnPhase& mine = per_client[c];
      bw::Rng rng(options.seed * 1000003 + salt * kClients + c);
      while (NowNs() < end) {
        const size_t q = rng.NextBelow(inputs.foci.size());
        ++mine.attempted;
        std::optional<QueryService::Response> response;
        double latency_us = 0;
        {
          ScopedSpan root("service.knn", 0, 0);
          const uint64_t t0 = NowNs();
          auto future = service->SubmitKnn(inputs.query(q), options.k);
          if (!future.ok()) {
            ++mine.failed;
            continue;
          }
          response.emplace(future->get());
          latency_us = (NowNs() - t0) / 1e3;
          if (response->ok()) {
            const auto& m = (*response)->metrics;
            const uint64_t exec_start =
                t0 + static_cast<uint64_t>(m.queue_wait_us * 1e3);
            RecordReported("service.queue", t0, m.queue_wait_us, root);
            const uint64_t search = RecordReported("gist.search", exec_start,
                                                   m.latency_us, root);
            if (search != 0 && m.pool_misses > 0 && io_delay_us > 0) {
              RecordReported("pages.miss_wait", exec_start,
                             static_cast<double>(m.pool_misses) * io_delay_us,
                             search, root.request());
            }
          }
        }
        if (!response->ok()) {
          ++mine.failed;
          continue;
        }
        const bw::service::QueryResponse& r = **response;
        const auto& m = r.metrics;
        mine.latency_us.push_back(latency_us);
        mine.queue_us.push_back(m.queue_wait_us);
        mine.exec_us.push_back(m.latency_us);
        mine.dispatch_us.push_back(latency_us - m.queue_wait_us -
                                   m.latency_us);
        if (m.pool_hits + m.pool_misses !=
            m.internal_accesses + m.leaf_accesses) {
          checker->Fail("pool hits + misses (" +
                        std::to_string(m.pool_hits + m.pool_misses) +
                        ") != node accesses (" +
                        std::to_string(m.internal_accesses +
                                       m.leaf_accesses) +
                        ")");
        }
        if (r.degraded()) checker->Fail("a k-NN answer came back degraded");
        CheckKnnAnswer(inputs, q, options.k, r.neighbors, inject_swap,
                       checker);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  KnnPhase merged;
  for (const KnnPhase& p : per_client) merged.Merge(p);
  merged.elapsed_s = (NowNs() - start) / 1e9;
  return merged;
}

struct InsertPhase {
  std::vector<double> latency_us;  // due time -> durable ack.
  std::vector<double> queue_us;    // MutationOutcome.queue_wait_us.
  std::vector<double> apply_us;    // MutationOutcome.apply_us.
  std::vector<char> acked;         // by pool row.
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// The write phase: an open loop that inserts pool rows [0, ops) at
/// kInsertRate with Poisson arrivals (row j sent by client j % kClients),
/// each timed from its due time to its durable ack.
InsertPhase RunInsertPhase(QueryService* service, const Inputs& inputs,
                           const RunOptions& options) {
  const size_t ops = options.write_ops;
  const std::vector<uint64_t> offsets = PoissonArrivals(
      options.seed ^ 0x1A5E27ull, kInsertRate, ops, kForever);
  std::vector<InsertPhase> per_client(kClients);
  std::vector<char> acked(ops, 0);
  RunOpenLoop(
      NowNs() + 1'000'000, offsets, kClients,
      [](size_t j) { return j % kClients; },
      [&](size_t c, size_t j, uint64_t due_ns) {
        InsertPhase& mine = per_client[c];
        ++mine.attempted;
        ScopedSpan root("service.insert", 0, 0);
        const uint64_t t0 = NowNs();
        auto future =
            service->SubmitInsert(inputs.pool[j], inputs.insert_rid(j));
        if (!future.ok()) {
          ++mine.failed;
          return;
        }
        QueryService::MutationResult outcome = future->get();
        const double latency_us = (NowNs() - due_ns) / 1e3;
        if (!outcome.ok()) {
          ++mine.failed;
          return;
        }
        acked[j] = 1;
        mine.latency_us.push_back(latency_us);
        mine.queue_us.push_back(outcome->queue_wait_us);
        mine.apply_us.push_back(outcome->apply_us);
        RecordReported("storage.insert_queue", t0, outcome->queue_wait_us,
                       root);
        RecordReported(
            "storage.insert_apply",
            t0 + static_cast<uint64_t>(outcome->queue_wait_us * 1e3),
            outcome->apply_us, root);
      });
  InsertPhase merged;
  for (InsertPhase& p : per_client) {
    for (auto [to, from] : {std::pair{&merged.latency_us, &p.latency_us},
                            std::pair{&merged.queue_us, &p.queue_us},
                            std::pair{&merged.apply_us, &p.apply_us}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
    merged.attempted += p.attempted;
    merged.failed += p.failed;
  }
  merged.acked = std::move(acked);
  return merged;
}

}  // namespace

void CheckReopenedStore(const std::string& base, const std::string& wal,
                        const Inputs& inputs, const std::vector<char>& acked,
                        const std::vector<size_t>& rows, Checker* checker) {
  // The thread-pool read engine's RunBatch can return while its last
  // worker is still about to lock the batch's mutex on the submitter's
  // stack (CHANGES.md, FOUND); a worker left blocked there hangs the
  // process at exit now and then. Reopen through the sync engine, which
  // reads the same frames one after another. No other thread is running.
  ::setenv("BW_IO_ENGINE", "sync", 1);
  auto index = bw::core::OpenDurableIndex(base, wal);
  if (!index.ok()) {
    checker->Fail("reopening " + base + " failed: " +
                  index.status().ToString());
    return;
  }
  for (size_t j : rows) {
    if (!acked[j]) continue;
    auto found = (*index)->tree().KnnSearch(inputs.pool[j], 4, nullptr);
    if (!found.ok() || !HoldsAtZero(*found, inputs.insert_rid(j))) {
      checker->Fail("reopened store " + base + " lost acked insert rid " +
                    std::to_string(inputs.insert_rid(j)));
    }
  }
}

RunResult RunKnnWorkload(const RunOptions& options, bool cold_pool,
                         Checker* checker) {
  Inputs inputs = MakeInputs(options, options.write_ops);
  ComputeExactAnswers(&inputs, options.k);
  const double base_mb = TrimmedResidentMb();
  std::fprintf(stderr, "bwperf: inputs generated at %.3f s (%.1f MB)\n",
               NowNs() / 1e9, base_mb);
  const std::string base = options.work_dir + "/index.idx";
  const std::string wal = options.work_dir + "/index.wal";
  auto built = bw::core::BuildDurableIndex(inputs.corpus,
                                           ServedIndexOptions(options), base,
                                           wal);
  BW_CHECK_MSG(built.ok(), built.status().ToString());
  std::unique_ptr<bw::core::DurableIndex> index = std::move(*built);
  const size_t index_pages = index->store().pages()->page_count();
  std::fprintf(stderr, "bwperf: index built at %.3f s\n", NowNs() / 1e9);

  bw::service::ServiceOptions service_options;
  service_options.num_workers = kClients;
  service_options.shared_pool_pages =
      cold_pool ? std::max<size_t>(1, index_pages / 10) : 2 * index_pages;
  service_options.io_delay_us = cold_pool ? 200 : 0;
  service_options.write.enabled = true;
  auto service = std::make_unique<QueryService>(index.get(), service_options);

  RunResult result;
  // Set-up ends when the first query is admitted.
  {
    auto first = service->SubmitKnn(inputs.query(0), options.k);
    BW_CHECK_MSG(first.ok(), first.status().ToString());
    result.values["setup_s"] = NowNs() / 1e9;
    BW_CHECK_OK(first->get().status());
  }
  std::fprintf(stderr,
               "bwperf: %zu blobs, %zu index pages, pool %zu pages, "
               "io_delay %u us\n",
               inputs.corpus.size(), index_pages,
               service_options.shared_pool_pages,
               service_options.io_delay_us);

  std::atomic<bool> inject_swap{options.inject == "swap_neighbor"};
  const uint32_t io_delay_us = service_options.io_delay_us;
  RunKnnPhase(service.get(), inputs, options, io_delay_us, 1.0, 1, nullptr,
              checker);

  KnnPhase measured;
  KnnPhase untraced;  // traced run: the first half, for the overhead.
  bw::service::ServiceSnapshot before;
  bw::service::ServiceSnapshot after;
  std::vector<double> serial_us;
  if (!options.trace) {
    measured = RunKnnPhase(service.get(), inputs, options, io_delay_us,
                           options.seconds, 2, &inject_swap, checker);
  } else {
    untraced = RunKnnPhase(service.get(), inputs, options, io_delay_us,
                           options.seconds / 2, 2, &inject_swap, checker);
    before = service->Snapshot();
    Tracer::SetEnabled(true);
    measured = RunKnnPhase(service.get(), inputs, options, io_delay_us,
                           options.seconds / 2, 3, nullptr, checker);
    after = service->Snapshot();
    // The same queries through a serial gist::Tree::KnnSearch: no pool,
    // no service.
    for (size_t q = 0; q < inputs.foci.size(); ++q) {
      ScopedSpan span("gist.serial_knn", 0, 0);
      const uint64_t t0 = NowNs();
      auto answer = service->tree().KnnSearch(inputs.query(q), options.k,
                                              nullptr);
      serial_us.push_back((NowNs() - t0) / 1e3);
      if (!answer.ok()) {
        checker->Fail("serial KnnSearch failed: " +
                      answer.status().ToString());
      } else {
        CheckKnnAnswer(inputs, q, options.k, *answer, nullptr, checker);
      }
    }
  }

  const bw::service::ServiceSnapshot before_writes = service->Snapshot();
  const uint64_t wal_before = std::filesystem::file_size(wal);
  InsertPhase writes = RunInsertPhase(service.get(), inputs, options);
  const bw::service::ServiceSnapshot after_writes = service->Snapshot();
  Tracer::SetEnabled(false);
  const double resident_mb = ResidentMb();
  size_t acked_count = 0;
  for (char a : writes.acked) acked_count += a != 0;
  const uint64_t disk_bytes = DirectoryBytes(options.work_dir);
  const uint64_t wal_bytes = std::filesystem::file_size(wal) - wal_before;

  result.attempted = measured.attempted + untraced.attempted +
                     writes.attempted;
  result.failed = measured.failed + untraced.failed + writes.failed;

  if (options.inject == "drop_insert" && acked_count > 0) {
    // Self test: lose one acked insert behind the checks' back.
    const size_t j = static_cast<size_t>(
        std::find(writes.acked.begin(), writes.acked.end(), 1) -
        writes.acked.begin());
    auto removed = service->SubmitDelete(inputs.pool[j], inputs.insert_rid(j));
    if (removed.ok()) removed->get();
  }
  CheckAfterRun(
      inputs, writes.acked, options.k,
      [&](const bw::geom::Vec& query, size_t k)
          -> bw::Result<std::vector<bw::gist::Neighbor>> {
        auto answer = service->Knn(query, k);
        if (!answer.ok()) return answer.status();
        return std::move(answer->neighbors);
      },
      checker);
  service.reset();
  index.reset();
  std::vector<size_t> all_rows(writes.acked.size());
  for (size_t j = 0; j < all_rows.size(); ++j) all_rows[j] = j;
  CheckReopenedStore(base, wal, inputs, writes.acked, all_rows, checker);

  auto& v = result.values;
  if (!options.trace) {
    v["knn_qps"] = measured.qps();
    v["index_mem_mb"] = resident_mb - base_mb;
    v["disk_bytes_per_blob"] =
        static_cast<double>(disk_bytes) / (inputs.corpus.size() + acked_count);
    return result;
  }

  const double queries =
      std::max<double>(1, static_cast<double>(after.completed -
                                              before.completed));
  const double accesses = static_cast<double>(
      after.pool_hits + after.pool_misses - before.pool_hits -
      before.pool_misses);
  v["service.queue_wait_us"] = Quantile(measured.queue_us, 0.5);
  v["service.exec_us"] = Quantile(measured.exec_us, 0.5);
  v["service.dispatch_us"] = Quantile(measured.dispatch_us, 0.5);
  v["gist.knn_cpu_us"] = Quantile(serial_us, 0.5);
  v["gist.leaf_accesses_per_query"] =
      (after.leaf_accesses - before.leaf_accesses) / queries;
  v["gist.internal_accesses_per_query"] =
      (after.internal_accesses - before.internal_accesses) / queries;
  v["pages.hit_ratio"] =
      accesses > 0 ? (after.pool_hits - before.pool_hits) / accesses : 0.0;
  v["pages.misses_per_query"] =
      (after.pool_misses - before.pool_misses) / queries;
  v["pages.evictions_per_query"] =
      (after.pool_evictions - before.pool_evictions) / queries;
  v["pages.contention_per_query"] =
      (after.pool_contention - before.pool_contention) / queries;
  v["storage.read_retries"] =
      static_cast<double>(after_writes.store_read_retries);
  v["storage.insert_queue_wait_us"] = Quantile(writes.queue_us, 0.5);
  v["storage.insert_apply_us"] = Quantile(writes.apply_us, 0.5);
  // Client-observed latencies: too unsteady on a shared host to gate
  // (README.md).
  v["load.knn_p50_us"] = Quantile(untraced.latency_us, 0.50);
  v["load.knn_p99_us"] = Quantile(untraced.latency_us, 0.99);
  v["load.insert_p50_us"] = Quantile(writes.latency_us, 0.50);
  v["load.insert_p99_us"] = Quantile(writes.latency_us, 0.99);
  const uint64_t commits =
      after_writes.commit_batches - before_writes.commit_batches;
  v["storage.inserts_per_commit"] =
      commits > 0 ? static_cast<double>(acked_count) / commits : 0.0;
  v["storage.wal_bytes_per_insert"] =
      acked_count > 0 ? static_cast<double>(wal_bytes) / acked_count : 0.0;
  const double p50_untraced = Quantile(untraced.latency_us, 0.5);
  v["trace.overhead_p50_pct"] =
      p50_untraced > 0
          ? 100.0 * (Quantile(measured.latency_us, 0.5) / p50_untraced - 1)
          : 0.0;
  v["trace.overhead_qps_pct"] =
      untraced.qps() > 0 ? 100.0 * (measured.qps() / untraced.qps() - 1)
                         : 0.0;
  const std::vector<Span> spans = Tracer::Collect();
  for (const auto& [layer, us] : MeanSelfTimeUs(spans, "service.knn")) {
    v["self.knn." + layer + "_us"] = us;
  }
  for (const auto& [layer, us] : MeanSelfTimeUs(spans, "service.insert")) {
    v["self.insert." + layer + "_us"] = us;
  }
  if (!Tracer::WriteJsonl(options.trace_path, spans)) {
    checker->Fail("could not write the span file");
  }
  return result;
}

}  // namespace bwperf
