// fleet-wire-mixed: the full deployed path. kClients net::Client
// connections over loopback to a net::Server fronting a shard::Router
// over kShards STR shards x kReplicas replicas of durable XJB indexes,
// each replica an in-process QueryService (what `bwrouter --local_shards
// 2 --replicas 2` deploys). An open loop at a fixed offered rate sends
// 90 % k-NN and 10 % inserts of new generator blobs; every request is
// timed from its due time. A traced run follows it with a closed loop
// of k-NN on the k-NN connections, the fleet's capacity.
//
// The layers below the wire are timed by wrappers the benchmark puts at
// the two seams the server and router already call through: TimedRouter
// (a net::Backend around Router, so Router::Knn / Router::Insert are
// timed on the server's dispatch thread) and TimedShardBackend (a
// shard::ShardBackend around each LocalShardBackend, so frontier opens,
// frontier pulls and replica inserts are timed wherever the router runs
// them, hedge threads included).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <unordered_map>

#include "core/durable_index.h"
#include "net/client.h"
#include "net/server.h"
#include "service/query_service.h"
#include "shard/partitioner.h"
#include "shard/router.h"
#include "shard/shard_backend.h"
#include "trace.h"
#include "util/random.h"
#include "workloads.h"

namespace bwperf {

namespace {

constexpr size_t kClients = 4;
constexpr size_t kShards = 2;
constexpr size_t kReplicas = 2;
/// Clients [0, kKnnClients) send the k-NN, the rest the inserts, so a
/// slow insert never holds up a due k-NN on the generator's side.
constexpr size_t kKnnClients = 3;
/// Offered rate of the open loop (requests/s): well below the fleet's
/// capacity, so each k-NN connection is busy about a tenth of the time
/// and the generator seldom sends late, yet high enough that a run
/// holds about a thousand inserts.
constexpr double kOfferedRate = 500;

/// The router request a server dispatch thread is serving, so backend
/// calls made on that thread (frontier opens) can name their parent.
struct RequestContext {
  uint64_t request = 0;
  uint64_t parent = 0;
};
thread_local RequestContext t_request;

class TimedFrontier : public bw::shard::ShardFrontier {
 public:
  TimedFrontier(std::unique_ptr<bw::shard::ShardFrontier> inner,
                RequestContext context)
      : inner_(std::move(inner)), context_(context) {}

  bw::Result<std::optional<bw::gist::Neighbor>> Next() override {
    ScopedSpan span("service.frontier_next", context_.parent,
                    context_.request);
    return inner_->Next();
  }
  bw::Status Finish() override { return inner_->Finish(); }
  bool degraded() const override { return inner_->degraded(); }
  uint64_t pages_skipped() const override { return inner_->pages_skipped(); }
  bool truncated() const override { return inner_->truncated(); }

 private:
  std::unique_ptr<bw::shard::ShardFrontier> inner_;
  RequestContext context_;
};

class TimedShardBackend : public bw::shard::ShardBackend {
 public:
  explicit TimedShardBackend(
      std::unique_ptr<bw::shard::LocalShardBackend> inner)
      : inner_(std::move(inner)) {}

  bw::Result<std::unique_ptr<bw::shard::ShardFrontier>> OpenFrontier(
      const bw::geom::Vec& query,
      const bw::service::StreamOptions& limits) override {
    const RequestContext context = t_request;
    ScopedSpan span("service.frontier_open", context.parent,
                    context.request);
    auto frontier = inner_->OpenFrontier(query, limits);
    if (!frontier.ok()) return frontier.status();
    return std::unique_ptr<bw::shard::ShardFrontier>(
        new TimedFrontier(std::move(*frontier), context));
  }
  bw::Result<bw::service::MutationOutcome> Insert(const bw::geom::Vec& point,
                                                  uint64_t rid) override {
    ScopedSpan span("service.replica_insert", t_request.parent,
                    t_request.request);
    auto outcome = inner_->Insert(point, rid);
    if (outcome.ok()) {
      RecordReported("storage.insert_queue", span.start_ns(),
                     outcome->queue_wait_us, span);
      RecordReported(
          "storage.insert_apply",
          span.start_ns() +
              static_cast<uint64_t>(outcome->queue_wait_us * 1e3),
          outcome->apply_us, span);
    }
    return outcome;
  }

  bw::Result<bw::service::QueryResponse> Range(const bw::geom::Vec& query,
                                               double radius,
                                               uint32_t deadline_us) override {
    return inner_->Range(query, radius, deadline_us);
  }
  bw::Result<bw::service::MutationOutcome> Remove(const bw::geom::Vec& point,
                                                  uint64_t rid) override {
    return inner_->Remove(point, rid);
  }
  bw::Status Probe() override { return inner_->Probe(); }
  std::string DebugName() const override { return inner_->DebugName(); }
  bw::Result<bw::service::CatchupPosition> CatchupPosition() override {
    return inner_->CatchupPosition();
  }
  bw::Result<bw::service::WalTail> ReadWalTail(uint64_t after_tag,
                                               size_t max_batches,
                                               size_t max_bytes) override {
    return inner_->ReadWalTail(after_tag, max_batches, max_bytes);
  }
  bw::Status ApplyWalBatch(const bw::storage::ShippedBatch& batch) override {
    return inner_->ApplyWalBatch(batch);
  }
  bw::Result<bw::service::SnapshotChunk> ReadSnapshotChunk(
      uint32_t start_page, size_t max_bytes) override {
    return inner_->ReadSnapshotChunk(start_page, max_bytes);
  }
  bw::Status ApplySnapshotChunk(const bw::service::SnapshotChunk& chunk,
                                bool first, bool last) override {
    return inner_->ApplySnapshotChunk(chunk, first, last);
  }
  bw::Result<bw::service::TreeSum> TreeChecksum() override {
    return inner_->TreeChecksum();
  }

 private:
  std::unique_ptr<bw::shard::LocalShardBackend> inner_;
};

class TimedRouter : public bw::net::Backend {
 public:
  explicit TimedRouter(bw::shard::Router* router) : router_(router) {}

  bw::Result<bw::service::QueryResponse> Knn(
      const bw::geom::Vec& query,
      const bw::service::StreamOptions& stream) override {
    ScopedSpan span("shard.knn", 0, 0, KeyOf(query));
    t_request = {span.request(), span.id()};
    auto response = router_->Knn(query, stream);
    t_request = {};
    return response;
  }
  bw::Result<bw::service::MutationOutcome> Insert(const bw::geom::Vec& point,
                                                  uint64_t rid) override {
    ScopedSpan span("shard.insert", 0, 0, KeyOf(point));
    t_request = {span.request(), span.id()};
    auto outcome = router_->Insert(point, rid);
    t_request = {};
    return outcome;
  }

  size_t dim() const override { return router_->dim(); }
  uint32_t features() const override { return router_->features(); }
  std::string peer_name() const override { return router_->peer_name(); }
  bw::Result<bw::service::QueryResponse> Range(const bw::geom::Vec& query,
                                               double radius,
                                               uint32_t deadline_us) override {
    return router_->Range(query, radius, deadline_us);
  }
  bw::Result<bw::service::MutationOutcome> Remove(const bw::geom::Vec& point,
                                                  uint64_t rid) override {
    return router_->Remove(point, rid);
  }
  std::vector<std::pair<std::string, double>> StatsFields() const override {
    return router_->StatsFields();
  }
  bw::net::HealthReply Health() const override { return router_->Health(); }

 private:
  bw::shard::Router* router_;
};

/// The deployment, destroyed front to back: server, router, services,
/// indexes (members are destroyed in reverse order).
struct Fleet {
  /// File stem of each replica's index, [shard * kReplicas + replica].
  std::vector<std::string> stems;
  std::vector<std::unique_ptr<bw::core::DurableIndex>> indexes;
  std::vector<std::unique_ptr<bw::service::QueryService>> services;
  std::vector<TimedShardBackend*> backends;  // owned by router.
  std::unique_ptr<bw::shard::Router> router;
  std::unique_ptr<TimedRouter> front;
  std::unique_ptr<bw::net::Server> server;

  bw::service::QueryService* service(size_t s, size_t r) {
    return services[s * kReplicas + r].get();
  }
};

std::unique_ptr<Fleet> BuildFleet(const Inputs& inputs,
                                  const RunOptions& options) {
  auto fleet = std::make_unique<Fleet>();
  const bw::shard::Partition partition =
      bw::shard::PartitionByStr(inputs.corpus, kShards);
  const bw::core::IndexBuildOptions build = ServedIndexOptions(options);
  bw::service::ServiceOptions service_options;  // bwrouter's local shards.
  service_options.num_workers = 4;
  service_options.write.enabled = true;

  std::vector<bw::shard::Router::Shard> shards(kShards);
  for (size_t s = 0; s < kShards; ++s) {
    for (size_t r = 0; r < kReplicas; ++r) {
      const std::string stem = options.work_dir + "/shard" +
                               std::to_string(s) + "_r" + std::to_string(r);
      fleet->stems.push_back(stem);
      auto index = bw::shard::BuildShardIndex(
          partition.points[s], partition.rids[s], build, stem + ".idx",
          stem + ".wal");
      BW_CHECK_MSG(index.ok(), index.status().ToString());
      fleet->indexes.push_back(std::move(*index));
      fleet->services.push_back(std::make_unique<bw::service::QueryService>(
          fleet->indexes.back().get(), service_options));
      auto backend = std::make_unique<TimedShardBackend>(
          std::make_unique<bw::shard::LocalShardBackend>(
              fleet->services.back().get(),
              "local:" + std::to_string(s) + "/" + std::to_string(r)));
      fleet->backends.push_back(backend.get());
      shards[s].replicas.push_back(std::move(backend));
    }
  }

  // bwrouter's flag defaults, except --hedge=false: with hedging on,
  // every frontier pull of a 2-replica shard is handed to the hedge
  // executor (about 5 ms per k = 200 query, most of it thread wake-ups
  // whose cost follows the host's load), and a hedge that crosses an
  // insert applied to one replica but not yet its sibling can skip or
  // repeat a neighbour. See CHANGES.md and README.md.
  bw::shard::RouterOptions router_options;
  router_options.hedge = false;
  router_options.fault_budget = 1;
  router_options.probe_interval = std::chrono::milliseconds(500);
  router_options.catchup_interval = std::chrono::milliseconds(1000);
  router_options.jitter_seed = 0;
  fleet->router = std::make_unique<bw::shard::Router>(
      bw::shard::ShardMap(inputs.corpus[0].dim(), partition.bounds),
      std::move(shards), router_options);
  fleet->front = std::make_unique<TimedRouter>(fleet->router.get());

  bw::net::ServerOptions server_options;
  server_options.io_threads = 1;
  server_options.dispatch_threads = 4;
  fleet->server =
      std::make_unique<bw::net::Server>(fleet->front.get(), server_options);
  BW_CHECK_OK(fleet->server->Start());
  return fleet;
}

/// One scheduled request of the open loop.
struct Op {
  bool insert = false;
  uint32_t index = 0;   // focus (k-NN) or pool row (insert).
  uint32_t client = 0;  // the connection that sends it.
};

struct Schedule {
  std::vector<uint64_t> due;  // ns from the loop's start.
  std::vector<Op> ops;
};

/// Poisson arrivals at kOfferedRate for options.seconds; every tenth
/// request is an insert of the next pool row, the rest k-NN of random
/// foci. k-NN go round-robin over the k-NN connections, inserts over
/// the rest.
Schedule MakeSchedule(const RunOptions& options, size_t foci) {
  Schedule schedule;
  schedule.due = PoissonArrivals(options.seed ^ 0x5C4EDull, kOfferedRate,
                                 SIZE_MAX, options.seconds);
  bw::Rng rng(options.seed ^ 0xF0C15ull);
  uint32_t next_row = 0;
  size_t knn_sent = 0;
  for (size_t i = 0; i < schedule.due.size(); ++i) {
    Op op;
    op.insert = i % 10 == 9;
    if (op.insert) {
      op.client = static_cast<uint32_t>(kKnnClients +
                                        next_row % (kClients - kKnnClients));
      op.index = next_row++;
    } else {
      op.client = static_cast<uint32_t>(knn_sent++ % kKnnClients);
      op.index = static_cast<uint32_t>(rng.NextBelow(foci));
    }
    schedule.ops.push_back(op);
  }
  return schedule;
}

/// What happened to one scheduled request (absolute NowNs times).
struct OpRecord {
  uint64_t due_ns = 0;
  uint64_t sent_ns = 0;
  uint64_t done_ns = 0;
  bool ok = false;
};

/// What a closed loop of k-NN over the wire measured.
struct WireLoop {
  std::vector<double> latency_us;  // client-observed, completed k-NN.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double elapsed_s = 0;

  double qps() const {
    return elapsed_s > 0 ? latency_us.size() / elapsed_s : 0.0;
  }
  void Merge(const WireLoop& other) {
    latency_us.insert(latency_us.end(), other.latency_us.begin(),
                      other.latency_us.end());
    attempted += other.attempted;
    failed += other.failed;
    elapsed_s += other.elapsed_s;
  }
};

/// Connections [0, connections) each send k-NN of random foci back to
/// back for `seconds`; every answer must equal exact[focus].
WireLoop RunWireKnnLoop(
    const std::vector<std::unique_ptr<bw::net::Client>>& clients,
    size_t connections, const Inputs& inputs,
    const std::vector<std::vector<Exact>>& exact, const RunOptions& options,
    double seconds, uint64_t salt, Checker* checker) {
  std::vector<WireLoop> per_client(connections);
  const uint64_t start = NowNs();
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      WireLoop& mine = per_client[c];
      bw::Rng rng(options.seed * 7919 + salt * kClients + c);
      while (NowNs() < end) {
        const size_t q = rng.NextBelow(inputs.foci.size());
        const bw::geom::Vec& query = inputs.query(q);
        ++mine.attempted;
        bw::Result<bw::net::QueryReply> reply =
            bw::Status::Internal("not sent");
        const uint64_t t0 = NowNs();
        {
          ScopedSpan span("net.knn", 0, 0, KeyOf(query));
          reply = clients[c]->Knn(query, options.k);
        }
        const double latency_us = (NowNs() - t0) / 1e3;
        if (!reply.ok() || !reply->ok()) {
          ++mine.failed;
          continue;
        }
        mine.latency_us.push_back(latency_us);
        if (reply->degraded) checker->Fail("a k-NN reply was degraded");
        const std::string error = inputs.oracle->CheckExact(
            query.data(), reply->neighbors, exact[q], options.k);
        if (!error.empty()) {
          checker->Fail("closed-loop k-NN of focus " +
                        std::to_string(inputs.foci[q]) + ": " + error);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  WireLoop merged;
  for (const WireLoop& p : per_client) merged.Merge(p);
  merged.elapsed_s = (NowNs() - start) / 1e9;
  return merged;
}

/// Sum of one ServiceSnapshot field over every replica.
template <typename Field>
double SumOver(const std::vector<bw::service::ServiceSnapshot>& snaps,
               Field field) {
  double total = 0;
  for (const auto& s : snaps) total += static_cast<double>(s.*field);
  return total;
}

std::vector<bw::service::ServiceSnapshot> Snapshots(Fleet* fleet) {
  std::vector<bw::service::ServiceSnapshot> out;
  for (const auto& service : fleet->services) {
    out.push_back(service->Snapshot());
  }
  return out;
}

uint64_t WalBytes(const Fleet& fleet) {
  uint64_t total = 0;
  for (const std::string& stem : fleet.stems) {
    total += std::filesystem::file_size(stem + ".wal");
  }
  return total;
}

/// Counters sampled at a phase boundary.
struct Counters {
  bw::shard::RouterStats router;
  bw::net::NetStats net;
  std::vector<bw::service::ServiceSnapshot> services;
  uint64_t wal_bytes = 0;
};

Counters Sample(Fleet* fleet) {
  return {fleet->router->stats(), fleet->server->stats(), Snapshots(fleet),
          WalBytes(*fleet)};
}

/// Re-parents each server-side root span (shard.knn / shard.insert) under
/// the client span that sent the request, matched by input vector and
/// time, and gives its whole subtree the client's request id.
void JoinServerSpans(std::vector<Span>* spans) {
  std::unordered_map<uint64_t, std::vector<const Span*>> clients;  // by key.
  for (const Span& s : *spans) {
    if (s.parent == 0 && (std::string(s.name) == "net.knn" ||
                          std::string(s.name) == "net.insert")) {
      clients[s.key].push_back(&s);
    }
  }
  std::unordered_map<uint64_t, std::pair<uint64_t, uint64_t>> moves;
  for (Span& s : *spans) {
    if (s.parent != 0 || (std::string(s.name) != "shard.knn" &&
                          std::string(s.name) != "shard.insert")) {
      continue;
    }
    for (const Span* c : clients[s.key]) {
      if (c->start_ns <= s.start_ns && s.end_ns <= c->end_ns) {
        moves[s.request] = {c->request, c->id};
        break;
      }
    }
  }
  for (Span& s : *spans) {
    auto it = moves.find(s.request);
    if (it == moves.end()) continue;
    if (s.parent == 0) s.parent = it->second.second;
    s.request = it->second.first;
  }
}

}  // namespace

RunResult RunFleetWorkload(const RunOptions& options, Checker* checker) {
  const Schedule schedule = MakeSchedule(options, options.queries);
  size_t inserts = 0;
  for (const Op& op : schedule.ops) inserts += op.insert;
  // Two spare pool rows for the checksum self test.
  Inputs inputs = MakeInputs(options, inserts + 2);
  ComputeExactAnswers(&inputs, options.k);
  // Bounds for reads that race inserts: the k-th distance lies between
  // the exact k-th over the corpus plus every scheduled insert and the
  // exact k-th over the corpus alone.
  std::vector<char> scheduled(inputs.pool.size(), 0);
  std::fill(scheduled.begin(), scheduled.begin() + inserts, 1);
  std::vector<double> lo_kth;
  for (const auto& answer : ExactAnswersWith(inputs, scheduled, options.k)) {
    lo_kth.push_back(answer.back().distance);
  }
  const double base_mb = TrimmedResidentMb();
  std::fprintf(stderr, "bwperf: inputs generated at %.3f s (%.1f MB)\n",
               NowNs() / 1e9, base_mb);
  std::unique_ptr<Fleet> fleet = BuildFleet(inputs, options);
  std::fprintf(stderr, "bwperf: fleet built at %.3f s\n", NowNs() / 1e9);

  std::vector<std::unique_ptr<bw::net::Client>> clients;
  for (size_t c = 0; c < kClients; ++c) {
    auto client =
        bw::net::Client::Connect("127.0.0.1", fleet->server->port());
    BW_CHECK_MSG(client.ok(), client.status().ToString());
    clients.push_back(std::move(*client));
  }

  RunResult result;
  {
    // Set-up ends when the first query is admitted.
    auto id = clients[0]->SubmitKnn(inputs.query(0), options.k);
    BW_CHECK_MSG(id.ok(), id.status().ToString());
    result.values["setup_s"] = NowNs() / 1e9;
    auto reply = clients[0]->AwaitQuery(*id);
    BW_CHECK_MSG(reply.ok() && reply->ok(), "first query failed");
  }
  std::fprintf(stderr,
               "bwperf: %zu blobs over %zu shards x %zu replicas, %zu "
               "requests at %.0f/s (%zu inserts)\n",
               inputs.corpus.size(), kShards, kReplicas,
               schedule.ops.size(), kOfferedRate, inserts);

  // Warm-up: a closed loop of k-NN on every connection, answers exact.
  const WireLoop warm_up = RunWireKnnLoop(clients, kClients, inputs,
                                          inputs.exact, options, 1.0, 1,
                                          checker);
  if (warm_up.failed > 0) checker->Fail("a warm-up k-NN failed");

  // The open loop. A traced run turns tracing on halfway through.
  std::vector<OpRecord> records(schedule.ops.size());
  std::vector<char> acked(inputs.pool.size(), 0);
  const Counters at_start = Sample(fleet.get());
  const uint64_t start = NowNs() + 1'000'000;
  const uint64_t middle =
      start + static_cast<uint64_t>(options.seconds / 2 * 1e9);
  Counters at_middle;
  std::thread switcher;
  if (options.trace) {
    switcher = std::thread([&] {
      SleepUntil(middle);
      at_middle = Sample(fleet.get());
      Tracer::SetEnabled(true);
    });
  }
  RunOpenLoop(
      start, schedule.due, kClients,
      [&](size_t i) { return schedule.ops[i].client; },
      [&](size_t c, size_t i, uint64_t due_ns) {
        const Op& op = schedule.ops[i];
        OpRecord& rec = records[i];
        rec.due_ns = due_ns;
        rec.sent_ns = NowNs();
        if (op.insert) {
          const bw::geom::Vec& point = inputs.pool[op.index];
          ScopedSpan span("net.insert", 0, 0, KeyOf(point));
          auto reply =
              clients[c]->Insert(point, inputs.insert_rid(op.index));
          rec.done_ns = NowNs();
          rec.ok = reply.ok() && reply->ok();
          if (rec.ok) acked[op.index] = 1;
          return;
        }
        const bw::geom::Vec& query = inputs.query(op.index);
        bw::Result<bw::net::QueryReply> reply =
            bw::Status::Internal("not sent");
        {
          ScopedSpan span("net.knn", 0, 0, KeyOf(query));
          reply = clients[c]->Knn(query, options.k);
        }
        rec.done_ns = NowNs();
        rec.ok = reply.ok() && reply->ok();
        if (!rec.ok) return;
        if (reply->degraded) checker->Fail("a k-NN reply was degraded");
        const std::string error = inputs.oracle->CheckBounded(
            query.data(), reply->neighbors, options.k, lo_kth[op.index],
            inputs.exact[op.index][options.k - 1].distance);
        if (!error.empty()) {
          checker->Fail("k-NN of focus " +
                        std::to_string(inputs.foci[op.index]) +
                        " during inserts: " + error);
        }
      });
  if (switcher.joinable()) switcher.join();
  Tracer::SetEnabled(false);
  const Counters at_open_end = Sample(fleet.get());
  std::vector<Span> spans = Tracer::Collect();

  // Traced runs only, the capacity phase: the k-NN connections in a
  // closed loop, every answer exact over the corpus plus the acked
  // inserts. Its untraced first half gives load.capacity_qps and its
  // traced second half the tracing overhead; the open loop's rate is its
  // schedule's, so it can give neither.
  // It runs in four parts, untraced, traced, traced, untraced, so a
  // steady drift of the host's speed weighs on both halves alike. Each
  // part lasts at most 1 s: a traced k-NN records about 230 spans (one
  // per frontier pull), which longer parts would hold in memory.
  WireLoop closed_untraced;
  WireLoop closed_traced;
  if (options.trace) {
    const std::vector<std::vector<Exact>> exact_after =
        ExactAnswersWith(inputs, acked, options.k);
    const double part_s = std::min(options.seconds / 8, 1.0);
    for (int part = 0; part < 4; ++part) {
      const bool traced = part == 1 || part == 2;
      Tracer::SetEnabled(traced);
      (traced ? closed_traced : closed_untraced)
          .Merge(RunWireKnnLoop(clients, kKnnClients, inputs, exact_after,
                                options, part_s, 2 + part, checker));
    }
    Tracer::SetEnabled(false);
    Tracer::Collect();  // the overhead figures need only the timings.
  }
  const Counters at_end = Sample(fleet.get());
  const double resident_mb = ResidentMb();
  size_t acked_count = 0;
  for (char a : acked) acked_count += a != 0;
  const uint64_t disk_bytes = DirectoryBytes(options.work_dir);

  // Latencies from due time, by kind and (traced run) by half.
  std::vector<double> knn_us;  // untraced half only.
  std::vector<double> insert_us;
  std::vector<double> lag_us;
  uint64_t knn_done = 0;
  uint64_t last_done = start;
  for (size_t i = 0; i < schedule.ops.size(); ++i) {
    const OpRecord& rec = records[i];
    ++result.attempted;
    if (!rec.ok) {
      ++result.failed;
      continue;
    }
    last_done = std::max(last_done, rec.done_ns);
    lag_us.push_back((rec.sent_ns - rec.due_ns) / 1e3);
    const double latency_us = (rec.done_ns - rec.due_ns) / 1e3;
    if (schedule.ops[i].insert) {
      insert_us.push_back(latency_us);
      continue;
    }
    ++knn_done;
    if (!options.trace || rec.due_ns < middle) knn_us.push_back(latency_us);
  }
  const uint64_t open_knn_done = knn_done;
  for (const WireLoop* loop : {&closed_untraced, &closed_traced}) {
    result.attempted += loop->attempted;
    result.failed += loop->failed;
    knn_done += loop->latency_us.size();
  }

  // Counter totals by two paths: every query either visited or pruned
  // each shard, and every node access was a pool hit or miss.
  const uint64_t queries = at_end.router.queries - at_start.router.queries;
  const uint64_t shard_visits =
      at_end.router.shards_visited + at_end.router.shards_pruned -
      at_start.router.shards_visited - at_start.router.shards_pruned;
  if (queries != knn_done || shard_visits != kShards * queries) {
    checker->Fail("router counted " + std::to_string(queries) +
                  " queries and " + std::to_string(shard_visits) +
                  " shard visits + prunes for " + std::to_string(knn_done) +
                  " k-NN over " + std::to_string(kShards) + " shards");
  }
  using Snap = bw::service::ServiceSnapshot;
  const double pool_fetches = SumOver(at_end.services, &Snap::pool_hits) +
                              SumOver(at_end.services, &Snap::pool_misses);
  const double node_accesses =
      SumOver(at_end.services, &Snap::leaf_accesses) +
      SumOver(at_end.services, &Snap::internal_accesses);
  if (pool_fetches != node_accesses) {
    checker->Fail("shard pools served " + std::to_string(pool_fetches) +
                  " fetches for " + std::to_string(node_accesses) +
                  " node accesses");
  }

  // After the run: the self tests' faults, then the checks they target.
  const size_t first_acked = static_cast<size_t>(
      std::find(acked.begin(), acked.end(), 1) - acked.begin());
  if (options.inject == "drop_insert" && first_acked < acked.size()) {
    auto removed = clients[0]->Remove(inputs.pool[first_acked],
                                      inputs.insert_rid(first_acked));
    BW_CHECK_MSG(removed.ok() && removed->ok(), "self-test remove failed");
  }
  if (options.inject == "checksum") {
    // Two different blobs, one into each replica of shard 0, behind the
    // router's back: equal tags, different trees.
    for (size_t r = 0; r < kReplicas; ++r) {
      const size_t row = inputs.pool.size() - 1 - r;
      BW_CHECK_OK(fleet->backends[r]
                      ->Insert(inputs.pool[row], inputs.insert_rid(row))
                      .status());
    }
  }

  CheckAfterRun(
      inputs, acked, options.k,
      [&](const bw::geom::Vec& query, size_t k)
          -> bw::Result<std::vector<bw::gist::Neighbor>> {
        auto reply = clients[0]->Knn(query, k);
        if (!reply.ok()) return reply.status();
        if (!reply->ok()) return reply->status;
        return std::move(reply->neighbors);
      },
      checker);
  // Which shard holds each acked insert, for the reopen check.
  std::vector<std::vector<size_t>> rows_of_shard(kShards);
  for (size_t j = 0; j < acked.size(); ++j) {
    if (!acked[j]) continue;
    for (size_t s = 0; s < kShards; ++s) {
      auto local = fleet->service(s, 0)->Knn(inputs.pool[j], 4);
      if (local.ok() && HoldsAtZero(local->neighbors, inputs.insert_rid(j))) {
        rows_of_shard[s].push_back(j);
      }
    }
  }
  for (size_t s = 0; s < kShards; ++s) {
    auto first = fleet->backends[s * kReplicas]->TreeChecksum();
    for (size_t r = 1; r < kReplicas; ++r) {
      auto other = fleet->backends[s * kReplicas + r]->TreeChecksum();
      if (!first.ok() || !other.ok() || first->tag != other->tag ||
          first->page_count != other->page_count ||
          first->crc != other->crc) {
        checker->Fail("shard " + std::to_string(s) + " replica " +
                      std::to_string(r) +
                      " disagrees with replica 0 on (tag, pages, crc)");
      }
    }
  }

  clients.clear();
  const bw::shard::RouterStats router_end = fleet->router->stats();
  const std::vector<std::string> stems = fleet->stems;
  fleet.reset();
  for (size_t i = 0; i < stems.size(); ++i) {
    CheckReopenedStore(stems[i] + ".idx", stems[i] + ".wal", inputs, acked,
                       rows_of_shard[i / kReplicas], checker);
  }
  std::fprintf(stderr,
               "bwperf: router saw %llu hedges, %llu failovers, %llu "
               "degraded queries\n",
               static_cast<unsigned long long>(router_end.hedges_attempted),
               static_cast<unsigned long long>(router_end.failovers),
               static_cast<unsigned long long>(router_end.degraded_queries));

  auto& v = result.values;
  if (!options.trace) {
    // The open loop's completion rate: it stays at the offered k-NN rate
    // (450/s) until a k-NN takes longer than a connection's share of the
    // schedule allows, so it shows only a collapse (README.md).
    v["knn_qps"] = open_knn_done / ((last_done - start) / 1e9);
    v["index_mem_mb"] = resident_mb - base_mb;
    v["disk_bytes_per_blob"] =
        static_cast<double>(disk_bytes) / (inputs.corpus.size() + acked_count);
    return result;
  }

  // Per-layer metrics from the open loop's traced half.
  const Counters& a = at_middle;
  const Counters& b = at_open_end;
  const double traced_queries = std::max<double>(
      1, static_cast<double>(b.router.queries - a.router.queries));
  const auto delta = [&](auto field) {
    return SumOver(b.services, field) - SumOver(a.services, field);
  };
  v["gist.leaf_accesses_per_query"] =
      delta(&Snap::leaf_accesses) / traced_queries;
  v["gist.internal_accesses_per_query"] =
      delta(&Snap::internal_accesses) / traced_queries;
  const double hits = delta(&Snap::pool_hits);
  const double misses = delta(&Snap::pool_misses);
  v["pages.hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  v["pages.misses_per_query"] = misses / traced_queries;
  v["pages.evictions_per_query"] =
      delta(&Snap::pool_evictions) / traced_queries;
  v["pages.contention_per_query"] =
      delta(&Snap::pool_contention) / traced_queries;
  v["storage.read_retries"] = SumOver(b.services, &Snap::store_read_retries);
  const double replica_acks = delta(&Snap::writes_acked);
  const double commits = delta(&Snap::commit_batches);
  v["storage.inserts_per_commit"] = commits > 0 ? replica_acks / commits : 0;
  v["storage.wal_bytes_per_insert"] =
      replica_acks > 0 ? (b.wal_bytes - a.wal_bytes) / replica_acks : 0.0;
  const double responses =
      static_cast<double>(b.net.responses - a.net.responses);
  v["net.bytes_out_per_query"] =
      responses > 0 ? (b.net.bytes_out - a.net.bytes_out) / responses : 0.0;
  v["shard.visits_per_query"] =
      (b.router.shards_visited - a.router.shards_visited) / traced_queries;
  v["shard.pruned_per_query"] =
      (b.router.shards_pruned - a.router.shards_pruned) / traced_queries;
  v["shard.hedges_per_query"] =
      (b.router.hedges_attempted - a.router.hedges_attempted) /
      traced_queries;
  v["load.lag_p50_us"] = Quantile(lag_us, 0.50);
  v["load.lag_p99_us"] = Quantile(lag_us, 0.99);
  v["load.capacity_qps"] = closed_untraced.qps();
  const double p50_untraced = Quantile(closed_untraced.latency_us, 0.5);
  v["trace.overhead_p50_pct"] =
      p50_untraced > 0 ? 100.0 * (Quantile(closed_traced.latency_us, 0.5) /
                                      p50_untraced -
                                  1)
                       : 0.0;
  v["trace.overhead_qps_pct"] =
      closed_untraced.qps() > 0
          ? 100.0 * (closed_traced.qps() / closed_untraced.qps() - 1)
          : 0.0;

  JoinServerSpans(&spans);
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::vector<double> wire_us, router_us, backend_us, merge_us, fanout_us,
      queue_us, apply_us;
  for (const Span& s : spans) {
    const std::string name = s.name;
    if (name == "storage.insert_queue") queue_us.push_back(s.duration_us());
    if (name == "storage.insert_apply") apply_us.push_back(s.duration_us());
    if (name == "net.knn" && children[s.id].size() == 1) {
      // The reply's server_latency_us reads 0 through the router, so the
      // wire's share is the client call minus the router span.
      wire_us.push_back(s.duration_us() - children[s.id][0]->duration_us());
    }
    if (name != "shard.knn" && name != "shard.insert") continue;
    double sum = 0;
    double slowest = 0;
    for (const Span* child : children[s.id]) {
      sum += child->duration_us();
      slowest = std::max(slowest, child->duration_us());
    }
    if (name == "shard.knn") {
      router_us.push_back(s.duration_us());
      backend_us.push_back(sum);
      merge_us.push_back(s.duration_us() - sum);
    } else {
      fanout_us.push_back(s.duration_us() - slowest);
    }
  }
  v["net.wire_us"] = Quantile(wire_us, 0.5);
  v["shard.router_us"] = Quantile(router_us, 0.5);
  v["shard.backend_us"] = Quantile(backend_us, 0.5);
  v["shard.merge_us"] = Quantile(merge_us, 0.5);
  v["shard.insert_fanout_us"] = Quantile(fanout_us, 0.5);
  v["storage.insert_queue_wait_us"] = Quantile(queue_us, 0.5);
  v["storage.insert_apply_us"] = Quantile(apply_us, 0.5);
  // Client-observed latencies of the open loop: too unsteady on a shared
  // host to gate (README.md).
  v["load.knn_p50_us"] = Quantile(knn_us, 0.50);
  v["load.knn_p99_us"] = Quantile(knn_us, 0.99);
  v["load.insert_p50_us"] = Quantile(insert_us, 0.50);
  v["load.insert_p99_us"] = Quantile(insert_us, 0.99);
  for (const auto& [layer, us] : MeanSelfTimeUs(spans, "net.knn")) {
    v["self.knn." + layer + "_us"] = us;
  }
  for (const auto& [layer, us] : MeanSelfTimeUs(spans, "net.insert")) {
    v["self.insert." + layer + "_us"] = us;
  }
  if (!Tracer::WriteJsonl(options.trace_path, spans)) {
    checker->Fail("could not write the span file");
  }
  return result;
}

}  // namespace bwperf
