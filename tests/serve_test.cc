// Unit tests of the serving layer: wire-protocol round-trips for every
// documented message shape (docs/SERVING.md), and the transport-free
// Service core — admission control, budget-slice rejection, ingest
// validation, delta streaming, deterministic backpressure stalls, and
// views sharing the service's graph stores.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "algos/programs.h"
#include "common/clean_stop.h"
#include "common/metrics.h"
#include "common/metrics_registry.h"
#include "common/rng.h"
#include "compiler/compiled_program.h"
#include "engine/engine.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "storage/csr.h"

namespace itg {
namespace serve {
namespace {

// ------------------------------------------------------ protocol round-trips

TEST(ServeProtocolTest, RegisterRequestRoundTrips) {
  Request req;
  req.op = RequestOp::kRegister;
  req.query = "q1";
  req.program = "bfs:3";
  req.supersteps = 12;
  req.symmetric = true;
  req.subscribe = true;
  req.snapshot = true;
  req.budget_bytes = 1ull << 33;  // does not fit an int32

  auto back_or = ParseRequest(SerializeRequest(req));
  ASSERT_TRUE(back_or.ok()) << back_or.status().ToString();
  const Request& back = back_or.value();
  EXPECT_EQ(back.op, RequestOp::kRegister);
  EXPECT_EQ(back.query, "q1");
  EXPECT_EQ(back.program, "bfs:3");
  EXPECT_EQ(back.supersteps, 12);
  EXPECT_TRUE(back.symmetric);
  EXPECT_TRUE(back.subscribe);
  EXPECT_TRUE(back.snapshot);
  EXPECT_EQ(back.budget_bytes, 1ull << 33);
}

TEST(ServeProtocolTest, RegisterWithInlineSourceRoundTrips) {
  Request req;
  req.op = RequestOp::kRegister;
  req.query = "custom";
  req.source = "vertex v { attr rank: double = 1.0; }\n\"quoted\"";

  auto back_or = ParseRequest(SerializeRequest(req));
  ASSERT_TRUE(back_or.ok()) << back_or.status().ToString();
  EXPECT_EQ(back_or.value().source, req.source);
}

TEST(ServeProtocolTest, IngestRequestRoundTrips) {
  Request req;
  req.op = RequestOp::kIngest;
  req.inserts = {{0, 5}, {5, 7}};
  req.deletes = {{2, 3}};

  auto back_or = ParseRequest(SerializeRequest(req));
  ASSERT_TRUE(back_or.ok()) << back_or.status().ToString();
  const Request& back = back_or.value();
  ASSERT_EQ(back.inserts.size(), 2u);
  EXPECT_EQ(back.inserts[1].src, 5);
  EXPECT_EQ(back.inserts[1].dst, 7);
  ASSERT_EQ(back.deletes.size(), 1u);
  EXPECT_EQ(back.deletes[0].src, 2);
}

TEST(ServeProtocolTest, SimpleOpsRoundTrip) {
  for (RequestOp op : {RequestOp::kSubscribe, RequestOp::kUnsubscribe,
                       RequestOp::kDeregister}) {
    Request req;
    req.op = op;
    req.query = "q";
    auto back_or = ParseRequest(SerializeRequest(req));
    ASSERT_TRUE(back_or.ok()) << back_or.status().ToString();
    EXPECT_EQ(back_or.value().op, op);
    EXPECT_EQ(back_or.value().query, "q");
  }
  for (RequestOp op : {RequestOp::kStatus, RequestOp::kShutdown}) {
    Request req;
    req.op = op;
    auto back_or = ParseRequest(SerializeRequest(req));
    ASSERT_TRUE(back_or.ok()) << back_or.status().ToString();
    EXPECT_EQ(back_or.value().op, op);
  }
}

TEST(ServeProtocolTest, MalformedRequestsRejected) {
  EXPECT_FALSE(ParseRequest("not json").ok());
  EXPECT_FALSE(ParseRequest("{\"op\":\"fly\"}").ok());
  // register without a query name or program
  EXPECT_FALSE(ParseRequest("{\"op\":\"register\"}").ok());
  EXPECT_FALSE(ParseRequest("{\"op\":\"register\",\"query\":\"q\"}").ok());
  // ingest without any ops
  EXPECT_FALSE(ParseRequest("{\"op\":\"ingest\"}").ok());
  // subscribe without a query
  EXPECT_FALSE(ParseRequest("{\"op\":\"subscribe\"}").ok());
}

TEST(ServeProtocolTest, AckAndErrorRoundTrip) {
  Response ack = MakeAck(RequestOp::kRegister, "q1");
  ack.timestamp = 3;
  ack.digest = 0xdeadbeefcafef00dull;  // only round-trips as a string
  ack.queue_depth = 2;
  auto back_or = ParseResponse(SerializeResponse(ack));
  ASSERT_TRUE(back_or.ok()) << back_or.status().ToString();
  EXPECT_EQ(back_or.value().type, ResponseType::kAck);
  EXPECT_EQ(back_or.value().op, "register");
  EXPECT_EQ(back_or.value().query, "q1");
  EXPECT_EQ(back_or.value().timestamp, 3);
  EXPECT_EQ(back_or.value().digest, 0xdeadbeefcafef00dull);
  EXPECT_EQ(back_or.value().queue_depth, 2u);

  Response err = MakeError(RequestOp::kIngest, "", "out_of_range",
                           "vertex 99 outside [0,8)");
  auto err_or = ParseResponse(SerializeResponse(err));
  ASSERT_TRUE(err_or.ok()) << err_or.status().ToString();
  EXPECT_EQ(err_or.value().type, ResponseType::kError);
  EXPECT_EQ(err_or.value().code, "out_of_range");
  EXPECT_EQ(err_or.value().message, "vertex 99 outside [0,8)");
}

TEST(ServeProtocolTest, SnapshotRoundTripsNonFiniteValues) {
  Response snap;
  snap.type = ResponseType::kSnapshot;
  snap.query = "q1";
  snap.timestamp = 0;
  snap.digest = 42;
  snap.num_vertices = 3;
  AttrColumn col;
  col.name = "dist";
  col.salt = 1;
  col.width = 1;
  col.values = {0.0, std::numeric_limits<double>::infinity(),
                0.1 + 0.2};  // 0.30000000000000004 must survive
  snap.attrs.push_back(col);

  const std::string line = SerializeResponse(snap);
  auto back_or = ParseResponse(line);
  ASSERT_TRUE(back_or.ok()) << back_or.status().ToString();
  const Response& back = back_or.value();
  ASSERT_EQ(back.attrs.size(), 1u);
  EXPECT_EQ(back.attrs[0].name, "dist");
  EXPECT_EQ(back.attrs[0].salt, 1);
  ASSERT_EQ(back.attrs[0].values.size(), 3u);
  EXPECT_TRUE(std::isinf(back.attrs[0].values[1]));
  // Bit-exact: the digest contract depends on it.
  EXPECT_EQ(back.attrs[0].values[2], 0.1 + 0.2);
}

TEST(ServeProtocolTest, DeltaRoundTrips) {
  Response delta;
  delta.type = ResponseType::kDelta;
  delta.query = "q1";
  delta.seq = 7;
  delta.timestamp = 7;
  delta.batch_ops = 64;
  delta.supersteps = 4;
  delta.seconds = 0.0125;
  delta.latency_us = 930;
  delta.digest = 0xffffffffffffffffull;
  AttrCells cells;
  cells.name = "rank";
  cells.salt = 0;
  cells.width = 2;
  cells.vertices = {3, 9};
  cells.values = {1.0, 2.0, 3.0, std::numeric_limits<double>::quiet_NaN()};
  delta.changes.push_back(cells);

  auto back_or = ParseResponse(SerializeResponse(delta));
  ASSERT_TRUE(back_or.ok()) << back_or.status().ToString();
  const Response& back = back_or.value();
  EXPECT_EQ(back.seq, 7u);
  EXPECT_EQ(back.digest, 0xffffffffffffffffull);
  ASSERT_EQ(back.changes.size(), 1u);
  EXPECT_EQ(back.changes[0].width, 2);
  ASSERT_EQ(back.changes[0].vertices.size(), 2u);
  EXPECT_EQ(back.changes[0].vertices[1], 9);
  EXPECT_TRUE(std::isnan(back.changes[0].values[3]));
}

TEST(ServeProtocolTest, StatusRoundTrips) {
  Response status;
  status.type = ResponseType::kStatus;
  status.queue_depth = 1;
  status.backpressure_stalls = 4;
  status.ingest_batches = 19;
  status.max_queries = 8;
  status.draining = true;
  QueryRow row;
  row.query = "q2";
  row.timestamp = 6;
  row.digest = 123456789;
  row.runs = 7;
  row.supersteps = 10;
  row.last_seconds = 0.004;
  row.budget_bytes = 1 << 20;
  row.budget_used_bytes = 4096;
  row.subscribers = 2;
  status.queries.push_back(row);

  auto back_or = ParseResponse(SerializeResponse(status));
  ASSERT_TRUE(back_or.ok()) << back_or.status().ToString();
  const Response& back = back_or.value();
  EXPECT_EQ(back.backpressure_stalls, 4u);
  EXPECT_EQ(back.ingest_batches, 19u);
  EXPECT_EQ(back.max_queries, 8u);
  EXPECT_TRUE(back.draining);
  ASSERT_EQ(back.queries.size(), 1u);
  EXPECT_EQ(back.queries[0].query, "q2");
  EXPECT_EQ(back.queries[0].digest, 123456789u);
  EXPECT_EQ(back.queries[0].budget_bytes, uint64_t{1 << 20});
  EXPECT_EQ(back.queries[0].subscribers, 2);
}

TEST(ServeProtocolTest, TraceIdRoundTripsInAckAndDelta) {
  Response ack = MakeAck(RequestOp::kIngest, "");
  ack.seq = 3;
  ack.trace_id = 0x4000000100000003ull;
  auto back_or = ParseResponse(SerializeResponse(ack));
  ASSERT_TRUE(back_or.ok()) << back_or.status().ToString();
  EXPECT_EQ(back_or.value().trace_id, 0x4000000100000003ull);

  Response delta;
  delta.type = ResponseType::kDelta;
  delta.query = "q1";
  delta.seq = 3;
  delta.trace_id = 0x4000000100000003ull;
  back_or = ParseResponse(SerializeResponse(delta));
  ASSERT_TRUE(back_or.ok()) << back_or.status().ToString();
  EXPECT_EQ(back_or.value().trace_id, 0x4000000100000003ull);

  // trace_id 0 means "none" and is omitted from the wire encoding.
  Response plain = MakeAck(RequestOp::kStatus, "");
  const std::string line = SerializeResponse(plain);
  EXPECT_EQ(line.find("trace_id"), std::string::npos) << line;
  back_or = ParseResponse(line);
  ASSERT_TRUE(back_or.ok()) << back_or.status().ToString();
  EXPECT_EQ(back_or.value().trace_id, 0u);
}

TEST(ServeProtocolTest, StatusLagFieldsRoundTrip) {
  Response status;
  status.type = ResponseType::kStatus;
  QueryRow row;
  row.query = "q1";
  row.lag_batches = 5;
  row.lag_us = 1234;
  status.queries.push_back(row);
  auto back_or = ParseResponse(SerializeResponse(status));
  ASSERT_TRUE(back_or.ok()) << back_or.status().ToString();
  ASSERT_EQ(back_or.value().queries.size(), 1u);
  EXPECT_EQ(back_or.value().queries[0].lag_batches, 5u);
  EXPECT_EQ(back_or.value().queries[0].lag_us, 1234u);
}

// -------------------------------------------------------------- clean stop

TEST(CleanStopTest, FlagSetAndCleared) {
  RequestCleanStop(false);
  EXPECT_FALSE(CleanStopRequested());
  RequestCleanStop();
  EXPECT_TRUE(CleanStopRequested());
  RequestCleanStop(false);
  EXPECT_FALSE(CleanStopRequested());
}

// ------------------------------------------------------------ service core

// 8 vertices, a line 0-1-2-...-5 plus some chords; room to insert more.
std::vector<Edge> BaseEdges() {
  return {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 3}, {1, 4}};
}

class ServeServiceTest : public ::testing::Test {
 protected:
  std::unique_ptr<Service> MakeService(size_t max_queries = 4,
                                       size_t queue_depth = 16,
                                       uint64_t slow_batch_ms = 0) {
    ServiceOptions opt;
    opt.max_queries = max_queries;
    opt.ingest_queue_depth = queue_depth;
    opt.slow_batch_ms = slow_batch_ms;
    opt.scratch_dir = ::testing::TempDir() + "/serve_" +
                      ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name();
    opt.num_threads = 1;
    opt.registry = &registry_;
    auto service_or = Service::Create(8, BaseEdges(), opt);
    EXPECT_TRUE(service_or.ok()) << service_or.status().ToString();
    return std::move(service_or).value();
  }

  static Request RegisterReq(const std::string& name,
                             const std::string& program = "wcc") {
    Request req;
    req.op = RequestOp::kRegister;
    req.query = name;
    req.program = program;
    return req;
  }

  MetricsRegistry registry_;
};

TEST_F(ServeServiceTest, RegisterIngestStreamDeltas) {
  auto service = MakeService();
  Response ack = service->Register(RegisterReq("q1"), nullptr);
  ASSERT_EQ(ack.type, ResponseType::kAck) << ack.message;
  EXPECT_EQ(ack.timestamp, 0);
  EXPECT_NE(ack.digest, 0u);

  std::mutex mu;
  std::vector<Response> deltas;
  int sub_id = 0;
  Request sub;
  sub.op = RequestOp::kSubscribe;
  sub.query = "q1";
  Response sub_ack = service->Subscribe(
      sub,
      [&](const Response& d) {
        std::lock_guard<std::mutex> lock(mu);
        deltas.push_back(d);
      },
      &sub_id);
  ASSERT_EQ(sub_ack.type, ResponseType::kAck) << sub_ack.message;

  // Connect 6 and 7 to the line: WCC labels of 6 and 7 must change.
  Request ingest;
  ingest.op = RequestOp::kIngest;
  ingest.inserts = {{5, 6}, {6, 7}};
  Response iack = service->Ingest(ingest);
  ASSERT_EQ(iack.type, ResponseType::kAck) << iack.message;

  service->Drain();
  // Taken before `mu`: the sink locks `mu` under the service's lock.
  Response status = service->GetStatus();
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(deltas.size(), 1u);
  const Response& d = deltas[0];
  EXPECT_EQ(d.type, ResponseType::kDelta);
  EXPECT_EQ(d.query, "q1");
  EXPECT_EQ(d.seq, 1u);
  EXPECT_EQ(d.timestamp, 1);
  EXPECT_NE(d.digest, ack.digest);  // state moved
  ASSERT_FALSE(d.changes.empty());
  bool touched_new_vertex = false;
  for (const AttrCells& cells : d.changes) {
    for (VertexId v : cells.vertices) {
      if (v == 6 || v == 7) touched_new_vertex = true;
    }
  }
  EXPECT_TRUE(touched_new_vertex);

  // The status row agrees with the streamed digest.
  ASSERT_EQ(status.queries.size(), 1u);
  EXPECT_EQ(status.queries[0].digest, d.digest);
  EXPECT_EQ(status.queries[0].timestamp, 1);
}

TEST_F(ServeServiceTest, AdmissionControlRejectsOverflowAndDuplicates) {
  auto service = MakeService(/*max_queries=*/2);
  ASSERT_EQ(service->Register(RegisterReq("a"), nullptr).type,
            ResponseType::kAck);
  Response dup = service->Register(RegisterReq("a"), nullptr);
  EXPECT_EQ(dup.type, ResponseType::kError);
  EXPECT_EQ(dup.code, "already_exists");

  ASSERT_EQ(service->Register(RegisterReq("b"), nullptr).type,
            ResponseType::kAck);
  Response full = service->Register(RegisterReq("c"), nullptr);
  EXPECT_EQ(full.type, ResponseType::kError);
  EXPECT_EQ(full.code, "admission_full");

  // Deregistering frees the slot.
  Request dereg;
  dereg.op = RequestOp::kDeregister;
  dereg.query = "a";
  EXPECT_EQ(service->Deregister(dereg).type, ResponseType::kAck);
  EXPECT_EQ(service->Register(RegisterReq("c"), nullptr).type,
            ResponseType::kAck);
  service->Drain();
}

TEST_F(ServeServiceTest, BudgetSliceRejectsOversizedView) {
  auto service = MakeService();
  Request req = RegisterReq("tiny");
  req.budget_bytes = 16;  // no view fits in 16 bytes
  Response resp = service->Register(req, nullptr);
  EXPECT_EQ(resp.type, ResponseType::kError);
  EXPECT_EQ(resp.code, "budget_exceeded");
  EXPECT_EQ(service->standing_queries(), 0u);

  // An adequate budget admits, and the row reports usage within it.
  req.budget_bytes = 64 << 20;
  resp = service->Register(req, nullptr);
  ASSERT_EQ(resp.type, ResponseType::kAck) << resp.message;
  Response status = service->GetStatus();
  ASSERT_EQ(status.queries.size(), 1u);
  EXPECT_GT(status.queries[0].budget_used_bytes, 0u);
  EXPECT_LE(status.queries[0].budget_used_bytes,
            status.queries[0].budget_bytes);
  service->Drain();
}

TEST_F(ServeServiceTest, CompileErrorSurfaces) {
  auto service = MakeService();
  Response unknown = service->Register(RegisterReq("x", "asp"), nullptr);
  EXPECT_EQ(unknown.type, ResponseType::kError);
  EXPECT_EQ(unknown.code, "compile_error");

  Request bad;
  bad.op = RequestOp::kRegister;
  bad.query = "y";
  bad.source = "this is not L_NGA";
  Response resp = service->Register(bad, nullptr);
  EXPECT_EQ(resp.type, ResponseType::kError);
  EXPECT_EQ(resp.code, "compile_error");
  service->Drain();
}

TEST_F(ServeServiceTest, IngestValidation) {
  auto service = MakeService();
  Request oob;
  oob.op = RequestOp::kIngest;
  oob.inserts = {{0, 99}};
  Response resp = service->Ingest(oob);
  EXPECT_EQ(resp.type, ResponseType::kError);
  EXPECT_EQ(resp.code, "out_of_range");

  Request dup;
  dup.op = RequestOp::kIngest;
  dup.inserts = {{0, 1}};  // already a base edge
  resp = service->Ingest(dup);
  EXPECT_EQ(resp.type, ResponseType::kError);
  EXPECT_EQ(resp.code, "invalid_mutation");

  Request absent;
  absent.op = RequestOp::kIngest;
  absent.deletes = {{6, 7}};  // never inserted
  resp = service->Ingest(absent);
  EXPECT_EQ(resp.type, ResponseType::kError);
  EXPECT_EQ(resp.code, "invalid_mutation");

  Request self_loop;
  self_loop.op = RequestOp::kIngest;
  self_loop.inserts = {{2, 2}};
  resp = service->Ingest(self_loop);
  EXPECT_EQ(resp.type, ResponseType::kError);
  EXPECT_EQ(resp.code, "invalid_mutation");

  // An edge listed twice in one batch is rejected, and the rejected batch
  // leaves the live edge set untouched: the edge can still be inserted.
  Request repeated;
  repeated.op = RequestOp::kIngest;
  repeated.inserts = {{6, 7}, {6, 7}};
  resp = service->Ingest(repeated);
  EXPECT_EQ(resp.type, ResponseType::kError);
  EXPECT_EQ(resp.code, "invalid_mutation");
  EXPECT_NE(resp.message.find("'+ 6 7'"), std::string::npos) << resp.message;
  repeated.inserts = {{6, 7}};
  repeated.deletes = {{6, 7}};
  resp = service->Ingest(repeated);
  EXPECT_EQ(resp.code, "invalid_mutation");
  repeated.deletes.clear();
  resp = service->Ingest(repeated);
  EXPECT_EQ(resp.type, ResponseType::kAck) << resp.message;
  service->Drain();
}

TEST_F(ServeServiceTest, BackpressureStallsCountedWhenQueueFull) {
  auto service = MakeService(/*max_queries=*/4, /*queue_depth=*/1);
  // Freeze the consumer so the queue stays deterministically full.
  service->SetMaintenancePaused(true);

  Request first;
  first.op = RequestOp::kIngest;
  first.inserts = {{5, 6}};
  Response ack = service->Ingest(first);
  ASSERT_EQ(ack.type, ResponseType::kAck) << ack.message;
  EXPECT_EQ(service->backpressure_stalls(), 0u);

  // The second producer must block until maintenance resumes.
  std::thread producer([&] {
    Request second;
    second.op = RequestOp::kIngest;
    second.inserts = {{6, 7}};
    Response r = service->Ingest(second);
    EXPECT_EQ(r.type, ResponseType::kAck) << r.message;
  });
  // Wait until the stall registers (the producer bumped the counter and
  // parked on the space condition).
  while (service->backpressure_stalls() == 0) {
    std::this_thread::yield();
  }
  EXPECT_EQ(service->backpressure_stalls(), 1u);

  service->SetMaintenancePaused(false);
  producer.join();
  service->Drain();
  EXPECT_EQ(service->ingest_batches(), 2u);
}

TEST_F(ServeServiceTest, DrainRejectsNewWork) {
  auto service = MakeService();
  ASSERT_EQ(service->Register(RegisterReq("q"), nullptr).type,
            ResponseType::kAck);
  service->Drain();
  EXPECT_TRUE(service->draining());

  Response reg = service->Register(RegisterReq("late"), nullptr);
  EXPECT_EQ(reg.type, ResponseType::kError);
  EXPECT_EQ(reg.code, "shutting_down");

  Request ingest;
  ingest.op = RequestOp::kIngest;
  ingest.inserts = {{5, 6}};
  Response resp = service->Ingest(ingest);
  EXPECT_EQ(resp.type, ResponseType::kError);
  EXPECT_EQ(resp.code, "shutting_down");
}

TEST_F(ServeServiceTest, SnapshotMatchesRegisteredView) {
  auto service = MakeService();
  Request req = RegisterReq("q1");
  req.snapshot = true;
  Response snapshot;
  Response ack = service->Register(req, &snapshot);
  ASSERT_EQ(ack.type, ResponseType::kAck) << ack.message;
  EXPECT_EQ(snapshot.type, ResponseType::kSnapshot);
  EXPECT_EQ(snapshot.query, "q1");
  EXPECT_EQ(snapshot.digest, ack.digest);
  EXPECT_EQ(snapshot.num_vertices, 8);
  ASSERT_FALSE(snapshot.attrs.empty());
  for (const AttrColumn& col : snapshot.attrs) {
    EXPECT_EQ(col.values.size(),
              static_cast<size_t>(col.width) * 8u);
  }
  service->Drain();
}

// ---------------------------------------------------- pipeline observability

TEST_F(ServeServiceTest, TraceIdPropagatesFromAckToDelta) {
  auto service = MakeService();
  ASSERT_EQ(service->Register(RegisterReq("q1"), nullptr).type,
            ResponseType::kAck);
  std::mutex mu;
  std::vector<Response> deltas;
  int sub_id = 0;
  Request sub;
  sub.op = RequestOp::kSubscribe;
  sub.query = "q1";
  service->Subscribe(
      sub,
      [&](const Response& d) {
        std::lock_guard<std::mutex> lock(mu);
        deltas.push_back(d);
      },
      &sub_id);

  Request ingest;
  ingest.op = RequestOp::kIngest;
  ingest.inserts = {{5, 6}};
  Response ack1 = service->Ingest(ingest);
  ASSERT_EQ(ack1.type, ResponseType::kAck) << ack1.message;
  Request ingest2;
  ingest2.op = RequestOp::kIngest;
  ingest2.inserts = {{6, 7}};
  Response ack2 = service->Ingest(ingest2);
  ASSERT_EQ(ack2.type, ResponseType::kAck) << ack2.message;

  // Trace ids are nonzero and distinct per batch.
  EXPECT_NE(ack1.trace_id, 0u);
  EXPECT_NE(ack2.trace_id, 0u);
  EXPECT_NE(ack1.trace_id, ack2.trace_id);

  service->Drain();
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(deltas.size(), 2u);
  EXPECT_EQ(deltas[0].trace_id, ack1.trace_id);
  EXPECT_EQ(deltas[1].trace_id, ack2.trace_id);
  // Deliberately not the raw seq (a client correlating ids through the
  // wire proves real propagation, not a seq echo).
  EXPECT_NE(deltas[0].trace_id, deltas[0].seq);
}

TEST_F(ServeServiceTest, StageLatenciesSumToEndToEnd) {
  auto service = MakeService();
  ASSERT_EQ(service->Register(RegisterReq("q1"), nullptr).type,
            ResponseType::kAck);
  const std::vector<Edge> extra = {{5, 6}, {6, 7}, {0, 2}};
  for (const Edge& e : extra) {
    Request ingest;
    ingest.op = RequestOp::kIngest;
    ingest.inserts = {e};
    ASSERT_EQ(service->Ingest(ingest).type, ResponseType::kAck);
  }
  const int kBatches = static_cast<int>(extra.size());
  service->Drain();

  Histogram* e2e = registry_.histogram("serve.delta_latency_us.q1");
  ASSERT_EQ(e2e->count(), static_cast<uint64_t>(kBatches));
  uint64_t stage_sum = 0;
  for (const char* name :
       {"serve.stage_latency_us.validate", "serve.stage_latency_us.queue_wait",
        "serve.stage_latency_us.apply", "serve.stage_latency_us.view_run.q1",
        "serve.stage_latency_us.stream_flush.q1"}) {
    Histogram* h = registry_.histogram(name);
    EXPECT_EQ(h->count(), static_cast<uint64_t>(kBatches)) << name;
    stage_sum += h->sum();
  }
  // With a single view, the five stages partition ingest-entry ->
  // post-flush: adjacent stages share the exact clock read at every
  // boundary, so the only possible discrepancy is the per-sample µs
  // truncation (< 1us per stage, 5 stages per batch).
  const uint64_t e2e_sum = e2e->sum();
  const uint64_t tolerance = 5 * kBatches;
  EXPECT_LE(stage_sum, e2e_sum + tolerance);
  EXPECT_GE(stage_sum + tolerance, e2e_sum);
}

TEST_F(ServeServiceTest, ViewLagRisesAndFallsWithPause) {
  auto service = MakeService();
  ASSERT_EQ(service->Register(RegisterReq("q1"), nullptr).type,
            ResponseType::kAck);
  Gauge* lag_batches = registry_.gauge("serve.view_lag_batches.q1");
  Gauge* lag_us = registry_.gauge("serve.view_lag_us.q1");
  EXPECT_EQ(lag_batches->value(), 0);
  EXPECT_EQ(lag_us->value(), 0);

  // Freeze maintenance, then ingest 3 spaced-out batches: the view's lag
  // must track the ingest stream deterministically (gauges are updated
  // under the service mutex at every Ingest).
  service->SetMaintenancePaused(true);
  const std::vector<Edge> extra = {{5, 6}, {6, 7}, {0, 2}};
  int depth = 0;
  for (const Edge& e : extra) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    Request ingest;
    ingest.op = RequestOp::kIngest;
    ingest.inserts = {e};
    ASSERT_EQ(service->Ingest(ingest).type, ResponseType::kAck);
    EXPECT_EQ(lag_batches->value(), ++depth);
  }
  const int kBatches = static_cast<int>(extra.size());
  // Three batches deep, at least the two inter-batch sleeps of event
  // time behind (lag_us measures ingest-time distance, not wall clock:
  // the reference is the first unapplied batch's ingest entry).
  EXPECT_EQ(lag_batches->value(), kBatches);
  EXPECT_GE(lag_us->value(), 3000);

  // The status rows surface the same staleness numbers.
  Response status = service->GetStatus();
  ASSERT_EQ(status.queries.size(), 1u);
  EXPECT_EQ(status.queries[0].lag_batches, static_cast<uint64_t>(kBatches));
  EXPECT_GT(status.queries[0].lag_us, 0u);

  // Resume + drain: the view catches up and the lag falls back to zero.
  service->SetMaintenancePaused(false);
  service->Drain();
  EXPECT_EQ(lag_batches->value(), 0);
  EXPECT_EQ(lag_us->value(), 0);
  status = service->GetStatus();
  ASSERT_EQ(status.queries.size(), 1u);
  EXPECT_EQ(status.queries[0].lag_batches, 0u);
  EXPECT_EQ(status.queries[0].lag_us, 0u);
}

TEST_F(ServeServiceTest, DeregisterRetiresMetricSeries) {
  auto service = MakeService();
  ASSERT_EQ(service->Register(RegisterReq("q1"), nullptr).type,
            ResponseType::kAck);
  Request ingest;
  ingest.op = RequestOp::kIngest;
  ingest.inserts = {{5, 6}};
  ASSERT_EQ(service->Ingest(ingest).type, ResponseType::kAck);
  // Wait for the batch to land so the per-view histograms have samples
  // (Drain would stop the maintenance thread for good).
  while (service->GetStatus().queries[0].timestamp < 1) {
    std::this_thread::yield();
  }
  MetricsRegistry::Snapshot before = registry_.Snap();
  EXPECT_EQ(before.histograms.count("serve.delta_latency_us.q1"), 1u);
  EXPECT_EQ(before.histograms.count("serve.stage_latency_us.view_run.q1"), 1u);
  EXPECT_EQ(before.gauges.count("serve.view_lag_batches.q1"), 1u);
  // The view's resource-attribution triple exists and has been billed
  // real work (registration compiled the program; the batch applied).
  EXPECT_EQ(before.counters.count("resource.view.q1.pages_read"), 1u);
  EXPECT_EQ(before.counters.count("resource.view.q1.bytes_alloc"), 1u);
  const auto cpu_it = before.counters.find("resource.view.q1.cpu_nanos");
  ASSERT_NE(cpu_it, before.counters.end());
  EXPECT_GT(cpu_it->second, 0u);

  Request dereg;
  dereg.op = RequestOp::kDeregister;
  dereg.query = "q1";
  ASSERT_EQ(service->Deregister(dereg).type, ResponseType::kAck);

  // Every serve.*.q1 series is gone from the registry — scrapes and run
  // reports stop exporting the dead view.
  MetricsRegistry::Snapshot after = registry_.Snap();
  EXPECT_EQ(after.histograms.count("serve.delta_latency_us.q1"), 0u);
  EXPECT_EQ(after.histograms.count("serve.stage_latency_us.view_run.q1"), 0u);
  EXPECT_EQ(after.histograms.count("serve.stage_latency_us.stream_flush.q1"),
            0u);
  EXPECT_EQ(after.gauges.count("serve.view_lag_batches.q1"), 0u);
  EXPECT_EQ(after.gauges.count("serve.view_lag_us.q1"), 0u);
  // ...including the resource.view.q1.* attribution counters, and in
  // fact any series naming the view: no orphans of any metric kind.
  for (const auto& [name, value] : after.counters) {
    EXPECT_EQ(name.find("q1"), std::string::npos) << name;
  }
  for (const auto& [name, value] : after.gauges) {
    EXPECT_EQ(name.find("q1"), std::string::npos) << name;
  }
  for (const auto& [name, hist] : after.histograms) {
    EXPECT_EQ(name.find("q1"), std::string::npos) << name;
  }
  // The batch-level stage histograms are service-wide and stay.
  EXPECT_EQ(after.histograms.count("serve.stage_latency_us.apply"), 1u);
  service->Drain();
}

TEST_F(ServeServiceTest, SlowBatchCounterTripsOnThreshold) {
  // 1 ms threshold; parking the batch in the queue for ~5 ms makes its
  // end-to-end latency (which includes queue_wait) deterministically slow.
  auto service = MakeService(/*max_queries=*/4, /*queue_depth=*/16,
                             /*slow_batch_ms=*/1);
  ASSERT_EQ(service->Register(RegisterReq("q1"), nullptr).type,
            ResponseType::kAck);
  Counter* slow = registry_.counter("serve.slow_batches");
  EXPECT_EQ(slow->value(), 0u);

  service->SetMaintenancePaused(true);
  Request ingest;
  ingest.op = RequestOp::kIngest;
  ingest.inserts = {{5, 6}};
  ASSERT_EQ(service->Ingest(ingest).type, ResponseType::kAck);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  service->SetMaintenancePaused(false);
  service->Drain();
  EXPECT_EQ(slow->value(), 1u);
}

TEST_F(ServeServiceTest, QueueDepthCountsQueuedPlusInFlight) {
  auto service = MakeService();
  service->SetMaintenancePaused(true);
  Gauge* depth = registry_.gauge("serve.queue_depth");

  Request first;
  first.op = RequestOp::kIngest;
  first.inserts = {{5, 6}};
  Response ack = service->Ingest(first);
  ASSERT_EQ(ack.type, ResponseType::kAck);
  EXPECT_EQ(ack.queue_depth, 1u);
  EXPECT_EQ(depth->value(), 1);

  Request second;
  second.op = RequestOp::kIngest;
  second.inserts = {{6, 7}};
  ack = service->Ingest(second);
  ASSERT_EQ(ack.type, ResponseType::kAck);
  // Ack, gauge and the status op all report queued + in-flight with the
  // same semantics.
  EXPECT_EQ(ack.queue_depth, 2u);
  EXPECT_EQ(depth->value(), 2);
  EXPECT_EQ(service->GetStatus().queue_depth, 2u);

  service->SetMaintenancePaused(false);
  service->Drain();
  EXPECT_EQ(depth->value(), 0);
  EXPECT_EQ(service->GetStatus().queue_depth, 0u);
}

TEST_F(ServeServiceTest, StatuszExtraIsServingMember) {
  auto service = MakeService();
  ASSERT_EQ(service->Register(RegisterReq("q1"), nullptr).type,
            ResponseType::kAck);
  const std::string extra = service->StatuszExtraJson();
  EXPECT_EQ(extra.rfind("\"serving\":{", 0), 0u) << extra;
  // Splicing into an object must keep the whole thing parseable.
  auto doc_or = Json::Parse("{" + extra + "}");
  ASSERT_TRUE(doc_or.ok()) << doc_or.status().ToString();
  const Json* serving = doc_or.value().Find("serving");
  ASSERT_NE(serving, nullptr);
  const Json* queries = serving->Find("queries");
  ASSERT_NE(queries, nullptr);
  ASSERT_EQ(queries->items.size(), 1u);
  // The pipeline section nests inside serving (not a stray sibling) and
  // carries the batch-level stages plus one entry per view.
  const Json* pipeline = serving->Find("pipeline");
  ASSERT_NE(pipeline, nullptr);
  const Json* stages = pipeline->Find("stages");
  ASSERT_NE(stages, nullptr);
  EXPECT_NE(stages->Find("validate"), nullptr);
  EXPECT_NE(stages->Find("queue_wait"), nullptr);
  EXPECT_NE(stages->Find("apply"), nullptr);
  const Json* views = pipeline->Find("views");
  ASSERT_NE(views, nullptr);
  EXPECT_NE(views->Find("q1"), nullptr);
  service->Drain();
}

// ------------------------------------------------------- shared graph stores

// Views run on the service's stores instead of private replicas: each
// view's streamed digest must equal a fresh one-shot of its program over
// the graph of record at the batch's snapshot (symmetrized for symmetric
// views).
class SharedStoreTest : public ::testing::Test {
 protected:
  static constexpr VertexId kN = 32;

  void SetUp() override {
    scratch_ = ::testing::TempDir() + "/serve_shared_" +
               ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(scratch_);
    // One orientation per undirected pair.
    Rng rng(71);
    while (present_.size() < 64) {
      VertexId u = static_cast<VertexId>(rng.Next() % kN);
      VertexId v = static_cast<VertexId>(rng.Next() % kN);
      if (u < v) present_.insert({u, v});
    }
    Start(std::vector<Edge>(present_.begin(), present_.end()));
  }

  /// (Re)starts the service over the base graph `edges`.
  void Start(const std::vector<Edge>& edges) {
    if (service_ != nullptr) service_->Drain();
    service_.reset();
    ServiceOptions opt;
    opt.scratch_dir = scratch_;
    opt.num_threads = 1;
    opt.registry = &registry_;
    auto service_or = Service::Create(kN, edges, opt);
    ASSERT_TRUE(service_or.ok()) << service_or.status().ToString();
    service_ = std::move(service_or).value();
  }

  void Ingest(const std::vector<Edge>& inserts,
              const std::vector<Edge>& deletes) {
    Request req;
    req.op = RequestOp::kIngest;
    req.inserts = inserts;
    req.deletes = deletes;
    Response ack = service_->Ingest(req);
    ASSERT_EQ(ack.type, ResponseType::kAck) << ack.message;
  }

  Response Register(const std::string& name, bool symmetric,
                    const std::string& program = "wcc") {
    Request req;
    req.op = RequestOp::kRegister;
    req.query = name;
    req.program = program;
    req.symmetric = symmetric;
    Response ack = service_->Register(req, nullptr);
    EXPECT_EQ(ack.type, ResponseType::kAck) << ack.message;
    Request sub;
    sub.op = RequestOp::kSubscribe;
    sub.query = name;
    service_->Subscribe(
        sub,
        [this, name](const Response& d) {
          std::lock_guard<std::mutex> lock(mu_);
          deltas_[name].push_back(d);
          cv_.notify_all();
        },
        nullptr);
    return ack;
  }

  /// Ingests one batch: one delete of a present pair, two inserts of
  /// pairs absent before the batch.
  void IngestBatch(Rng* rng) {
    Request req;
    req.op = RequestOp::kIngest;
    auto it = present_.begin();
    std::advance(it, rng->Next() % present_.size());
    req.deletes.push_back(*it);
    while (req.inserts.size() < 2) {
      VertexId u = static_cast<VertexId>(rng->Next() % kN);
      VertexId v = static_cast<VertexId>(rng->Next() % kN);
      if (u < v && present_.insert({u, v}).second) req.inserts.push_back({u, v});
    }
    present_.erase(req.deletes.front());
    Response ack = service_->Ingest(req);
    ASSERT_EQ(ack.type, ResponseType::kAck) << ack.message;
  }

  void WaitForDeltas(const std::string& name, size_t count) {
    std::unique_lock<std::mutex> lock(mu_);
    ASSERT_TRUE(cv_.wait_for(lock, std::chrono::seconds(30), [&] {
      return deltas_[name].size() >= count;
    }));
  }

  /// Digest of a fresh one-shot of `program` over the graph of record at
  /// snapshot `t`. Call after Drain.
  uint64_t FreshDigest(const std::string& program, Timestamp t,
                       bool symmetric) {
    std::vector<Edge> edges;
    DynamicGraphStore* primary = service_->primary();
    EXPECT_TRUE(primary->MaterializeEdges(primary->pool(), t, &edges).ok());
    if (symmetric) edges = SymmetrizeEdges(edges);
    std::string source;
    int supersteps = -1;
    EXPECT_TRUE(NamedProgram(program, &source, &supersteps));
    auto store = DynamicGraphStore::Create(
        scratch_ + "/fresh" + std::to_string(fresh_++), kN, edges, {},
        &GlobalMetrics());
    EXPECT_TRUE(store.ok());
    auto compiled = CompileProgram(source);
    EXPECT_TRUE(compiled.ok());
    EngineOptions opt;
    opt.fixed_supersteps = supersteps;
    opt.record_history = false;
    opt.num_threads = 1;
    Engine engine(store.value().get(), compiled.value().get(), opt);
    EXPECT_TRUE(engine.RunOneShot(0).ok());
    return engine.last_stats().state_digest;
  }

  std::string scratch_;
  MetricsRegistry registry_;
  std::set<Edge> present_;
  std::unique_ptr<Service> service_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::string, std::vector<Response>> deltas_;
  int fresh_ = 0;
};

TEST_F(SharedStoreTest, LateViewMatchesFreshOneShotAfterEveryBatch) {
  Rng rng(72);
  Response early = Register("early", false);
  EXPECT_EQ(early.timestamp, 0);
  for (int b = 0; b < 5; ++b) IngestBatch(&rng);
  WaitForDeltas("early", 5);

  Response late = Register("late", false);
  EXPECT_EQ(late.timestamp, 0);
  for (int b = 0; b < 6; ++b) IngestBatch(&rng);
  service_->Drain();
  EXPECT_EQ(late.digest, FreshDigest("wcc", 5, false));

  std::lock_guard<std::mutex> lock(mu_);
  ASSERT_EQ(deltas_["early"].size(), 11u);
  ASSERT_EQ(deltas_["late"].size(), 6u);
  for (const Response& d : deltas_["late"]) {
    const Timestamp ts = static_cast<Timestamp>(d.seq);
    EXPECT_EQ(d.timestamp, ts - 5);  // view-local: +1 per batch
    EXPECT_EQ(d.digest, FreshDigest("wcc", ts, false)) << "batch " << ts;
  }
  for (const Response& d : deltas_["early"]) {
    EXPECT_EQ(d.timestamp, static_cast<Timestamp>(d.seq));
    EXPECT_EQ(d.digest, FreshDigest("wcc", d.timestamp, false));
  }
}

TEST_F(SharedStoreTest, SymmetricAndDirectedViewsMatchTheirOwnOneShots) {
  Rng rng(73);
  Response directed = Register("directed", false);
  Response symmetric = Register("symmetric", true);
  for (int b = 0; b < 6; ++b) IngestBatch(&rng);
  service_->Drain();
  EXPECT_EQ(directed.digest, FreshDigest("wcc", 0, false));
  EXPECT_EQ(symmetric.digest, FreshDigest("wcc", 0, true));

  std::lock_guard<std::mutex> lock(mu_);
  ASSERT_EQ(deltas_["directed"].size(), 6u);
  ASSERT_EQ(deltas_["symmetric"].size(), 6u);
  for (int i = 0; i < 6; ++i) {
    const Response& d = deltas_["directed"][i];
    const Response& sd = deltas_["symmetric"][i];
    EXPECT_EQ(d.digest, FreshDigest("wcc", d.timestamp, false));
    EXPECT_EQ(sd.digest, FreshDigest("wcc", sd.timestamp, true));
    EXPECT_EQ(sd.batch_ops, 2 * d.batch_ops);  // mirrored ops
  }
}

// The graph of record may hold both orientations of a pair. The symmetric
// companion then takes only undirected changes: inserting the reverse of
// a present edge, or deleting one orientation while the other stays,
// leaves it as it is. Two triangles: 0-1-2 with one orientation per
// pair, 3-4-5 with both orientations of 3-4. LCC reads degrees and
// triangle counts, so a companion that double-counts an edge or loses
// one diverges from the fresh one-shot.
TEST_F(SharedStoreTest, SymmetricViewTakesOnlyUndirectedChanges) {
  Start({{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 3}, {4, 5}, {3, 5}});
  Register("lcc", true, "lcc");
  Ingest({{1, 0}}, {{3, 4}});   // reverse insert, one-orientation delete
  Ingest({{6, 7}}, {{4, 3}});   // the pair 3-4 is gone now
  Ingest({{3, 4}}, {{0, 1}});   // 3-4 back; 0-1 stays through 1->0
  service_->Drain();
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<Response>& deltas = deltas_["lcc"];
  ASSERT_EQ(deltas.size(), 3u);
  const std::vector<uint64_t> sym_ops = {0, 4, 2};
  for (size_t i = 0; i < deltas.size(); ++i) {
    EXPECT_EQ(deltas[i].digest, FreshDigest("lcc", deltas[i].timestamp, true))
        << "batch " << deltas[i].timestamp;
    EXPECT_EQ(deltas[i].batch_ops, sym_ops[i]) << "batch " << i;
  }
}

TEST_F(SharedStoreTest, ViewsCreateNoStoreFilesOfTheirOwn) {
  Rng rng(74);
  Register("a", false);
  Register("b", false, "pr");
  Register("c", true);
  IngestBatch(&rng);
  service_->Drain();
  std::set<std::string> stores;
  for (const auto& entry : std::filesystem::directory_iterator(scratch_)) {
    const std::string file = entry.path().filename().string();
    if (entry.path().extension() != ".pages") continue;
    stores.insert(file);
  }
  EXPECT_EQ(stores, (std::set<std::string>{"primary.pages",
                                           "symmetric.pages"}));
}

}  // namespace
}  // namespace serve
}  // namespace itg
