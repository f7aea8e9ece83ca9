// Server-grade protocol tests: encode/decode round trips pinned to the
// byte layout of docs/SERVING.md, malformed-frame handling through a live
// in-process server (bad magic / version / CRC / length / type -- a clean
// error frame and a deliberate keep-or-close decision, never a crash), a
// fixed-seed fuzz loop that feeds 10k garbage frames, and regression tests
// for the two socket failpoint sites.

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/rng.h"
#include "nncell/nncell_index.h"
#include "server/client.h"
#include "server/frame.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/socket_io.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace nncell {
namespace server {
namespace {

// --- pure protocol round trips -------------------------------------------

TEST(FrameTest, HeaderByteLayout) {
  std::string frame;
  EncodeFrame(kReqPing, 0x1122334455667788ULL, "ab", &frame);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + 2);
  const auto* b = reinterpret_cast<const uint8_t*>(frame.data());
  // u32 magic, little-endian.
  EXPECT_EQ(b[0], 0x46);  // 'F'
  EXPECT_EQ(b[1], 0x43);  // 'C'
  EXPECT_EQ(b[2], 0x4e);  // 'N'
  EXPECT_EQ(b[3], 0x4e);  // 'N'
  EXPECT_EQ(b[4], kProtocolVersion);
  EXPECT_EQ(b[5], kReqPing);
  EXPECT_EQ(b[6], 0);  // reserved
  EXPECT_EQ(b[7], 0);
  // u64 request id, little-endian.
  EXPECT_EQ(b[8], 0x88);
  EXPECT_EQ(b[15], 0x11);
  // u32 payload length.
  EXPECT_EQ(b[16], 2);
  EXPECT_EQ(b[17], 0);

  FrameHeader header;
  ASSERT_TRUE(DecodeFrameHeader(b, frame.size(), &header).ok());
  EXPECT_EQ(header.type, kReqPing);
  EXPECT_EQ(header.request_id, 0x1122334455667788ULL);
  EXPECT_EQ(header.payload_len, 2u);
  EXPECT_TRUE(VerifyPayloadCrc(header, "ab").ok());
  EXPECT_FALSE(VerifyPayloadCrc(header, "aB").ok());
}

TEST(FrameTest, EncodeDecodeIsByteStable) {
  std::string a, b;
  EncodeFrame(kReqQuery, 7, "payload", &a);
  EncodeFrame(kReqQuery, 7, "payload", &b);
  EXPECT_EQ(a, b);
}

TEST(FrameTest, HeaderRejectsCorruption) {
  std::string frame;
  EncodeFrame(kReqPing, 1, "", &frame);
  FrameHeader header;

  std::string bad = frame;
  bad[0] ^= 0xff;  // magic
  EXPECT_FALSE(DecodeFrameHeader(reinterpret_cast<const uint8_t*>(bad.data()),
                                 bad.size(), &header)
                   .ok());
  bad = frame;
  bad[4] = 99;  // version
  EXPECT_FALSE(DecodeFrameHeader(reinterpret_cast<const uint8_t*>(bad.data()),
                                 bad.size(), &header)
                   .ok());
  bad = frame;
  bad[6] = 1;  // reserved bits
  EXPECT_FALSE(DecodeFrameHeader(reinterpret_cast<const uint8_t*>(bad.data()),
                                 bad.size(), &header)
                   .ok());
  bad = frame;
  bad[19] = 0xff;  // payload_len far beyond kFrameMaxPayload
  EXPECT_FALSE(DecodeFrameHeader(reinterpret_cast<const uint8_t*>(bad.data()),
                                 bad.size(), &header)
                   .ok());
}

TEST(FrameTest, PointPayloadRoundTrip) {
  const std::vector<double> point = {0.25, -1.5, 3.75};
  std::string payload;
  EncodePointPayload(point, &payload);
  std::vector<double> back;
  ASSERT_TRUE(DecodePointPayload(payload, &back).ok());
  EXPECT_EQ(back, point);

  // Re-encoding the decoded value is byte-identical.
  std::string again;
  EncodePointPayload(back, &again);
  EXPECT_EQ(again, payload);

  EXPECT_FALSE(DecodePointPayload(payload.substr(0, 10), &back).ok());
  EXPECT_FALSE(DecodePointPayload(payload + "x", &back).ok());
  EXPECT_FALSE(DecodePointPayload("", &back).ok());
}

TEST(FrameTest, BatchPayloadRoundTrip) {
  const std::vector<std::vector<double>> points = {{1, 2}, {3, 4}, {5, 6}};
  std::string payload;
  EncodeBatchPayload(points, &payload);
  size_t dim = 0, count = 0;
  std::vector<double> flat;
  ASSERT_TRUE(DecodeBatchPayload(payload, &dim, &flat, &count).ok());
  EXPECT_EQ(dim, 2u);
  EXPECT_EQ(count, 3u);
  EXPECT_EQ(flat, (std::vector<double>{1, 2, 3, 4, 5, 6}));
  EXPECT_FALSE(DecodeBatchPayload(payload.substr(0, 9), &dim, &flat, &count)
                   .ok());
}

TEST(FrameTest, DeletePayloadRoundTrip) {
  std::string payload;
  EncodeDeletePayload(0xdeadbeefULL, &payload);
  uint64_t id = 0;
  ASSERT_TRUE(DecodeDeletePayload(payload, &id).ok());
  EXPECT_EQ(id, 0xdeadbeefULL);
  EXPECT_FALSE(DecodeDeletePayload(payload + "x", &id).ok());
}

TEST(FrameTest, StatusPayloadRoundTrip) {
  std::string payload;
  EncodeStatusPayload(kStatusRetryLater, "queue full", &payload);
  uint8_t status = 0;
  std::string_view body;
  std::string message;
  ASSERT_TRUE(DecodeStatusPayload(payload, &status, &body, &message).ok());
  EXPECT_EQ(status, kStatusRetryLater);
  EXPECT_EQ(message, "queue full");
}

TEST(FrameTest, QueryResultPayloadRoundTrip) {
  WireQueryResult r;
  r.id = 17;
  r.dist = 0.125;
  r.candidates = 9;
  r.used_fallback = 1;
  r.point = {0.5, 0.75};
  std::string payload;
  EncodeQueryResultPayload(r, &payload);

  uint8_t status = 0;
  std::string_view body;
  std::string message;
  ASSERT_TRUE(DecodeStatusPayload(payload, &status, &body, &message).ok());
  ASSERT_EQ(status, kStatusOk);
  WireQueryResult back;
  ASSERT_TRUE(DecodeQueryResultBody(body, &back).ok());
  EXPECT_TRUE(back == r);

  std::vector<WireQueryResult> rs = {r, r};
  rs[1].id = 18;
  payload.clear();
  EncodeQueryBatchResultPayload(rs, &payload);
  ASSERT_TRUE(DecodeStatusPayload(payload, &status, &body, &message).ok());
  std::vector<WireQueryResult> backs;
  ASSERT_TRUE(DecodeQueryBatchResultBody(body, &backs).ok());
  ASSERT_EQ(backs.size(), 2u);
  EXPECT_TRUE(backs[0] == rs[0]);
  EXPECT_TRUE(backs[1] == rs[1]);
}

TEST(FrameTest, InsertAndStatsPayloadRoundTrip) {
  std::string payload;
  EncodeInsertResultPayload(41, &payload);
  uint8_t status = 0;
  std::string_view body;
  std::string message;
  ASSERT_TRUE(DecodeStatusPayload(payload, &status, &body, &message).ok());
  uint64_t id = 0;
  ASSERT_TRUE(DecodeInsertResultBody(body, &id).ok());
  EXPECT_EQ(id, 41u);

  payload.clear();
  EncodeStatsPayload("{\"a\":1}", &payload);
  ASSERT_TRUE(DecodeStatusPayload(payload, &status, &body, &message).ok());
  std::string json;
  ASSERT_TRUE(DecodeStatsBody(body, &json).ok());
  EXPECT_EQ(json, "{\"a\":1}");
}

// --- live in-process server ----------------------------------------------

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    socket_path_ =
        ::testing::TempDir() + "server_test_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".sock";
    std::filesystem::remove(socket_path_);
    file_ = std::make_unique<PageFile>(1024);
    pool_ = std::make_unique<BufferPool>(file_.get(), 512);
    NNCellOptions opts;
    opts.algorithm = ApproxAlgorithm::kSphere;
    index_ = std::make_unique<NNCellIndex>(pool_.get(), 2, opts);
    // 20 points would plan a scan; the cell probe keeps the server's
    // concurrent queries traversing the cell tree.
    index_->SetExactPlan(ExactPlan::kCellProbe);
    Rng rng(0x5e1);
    for (int i = 0; i < 20; ++i) {
      auto id = index_->Insert({rng.NextDouble(), rng.NextDouble()});
      ASSERT_TRUE(id.ok());
    }
  }

  void TearDown() override {
    if (server_) {
      ASSERT_TRUE(server_->Stop().ok());
    }
    failpoint::DisarmAll();
    std::filesystem::remove(socket_path_);
  }

  void StartServer(ServerOptions sopt = ServerOptions()) {
    sopt.socket_path = socket_path_;
    server_ = std::make_unique<NNCellServer>(index_.get(), sopt);
    ASSERT_TRUE(server_->Start().ok());
  }

  StatusOr<Client> Connect() { return Client::ConnectUnix(socket_path_); }

  std::string socket_path_;
  std::unique_ptr<PageFile> file_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<NNCellIndex> index_;
  std::unique_ptr<NNCellServer> server_;
};

TEST_F(ServerTest, PingQueryInsertDeleteStats) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client->Ping().ok());

  auto r = client->Query({0.5, 0.5});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto direct = index_->Query(std::vector<double>{0.5, 0.5}.data());
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(r->id, direct->id);
  EXPECT_EQ(r->dist, direct->dist);
  EXPECT_EQ(r->candidates, direct->candidates);
  ASSERT_EQ(r->point.size(), 2u);

  auto id = client->Insert({0.123, 0.456});
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_TRUE(index_->IsAlive(*id));
  ASSERT_TRUE(client->Delete(*id).ok());
  EXPECT_FALSE(index_->IsAlive(*id));

  auto stats = client->StatsJson();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->find("\"server\":{"), std::string::npos);
  EXPECT_NE(stats->find("\"accepted\":"), std::string::npos);
  EXPECT_NE(stats->find("\"metrics\":"), std::string::npos);
  EXPECT_NE(stats->find("server.requests.accepted"), std::string::npos);
  // The index's exact plan and E/N (the index is quiescent between
  // requests, so reading it here races with nothing).
  const std::string plan = std::string("\"index\":{\"exact_plan\":\"") +
                           index_->ExactPlanName() + "\",";
  EXPECT_NE(stats->find(plan), std::string::npos) << *stats;
  EXPECT_NE(stats->find("\"points\":" + std::to_string(index_->size()) + "}"),
            std::string::npos)
      << *stats;
}

TEST_F(ServerTest, QueryBatchMatchesSingles) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  std::vector<std::vector<double>> queries = {
      {0.1, 0.9}, {0.4, 0.4}, {0.8, 0.2}};
  auto batch = client->QueryBatch(queries);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto single = client->Query(queries[i]);
    ASSERT_TRUE(single.ok());
    EXPECT_TRUE((*batch)[i] == *single) << "query " << i;
  }
}

// Forwards to an index and records how many calls were ever in flight at
// once. Each call lingers briefly so that overlapping calls would be seen.
class OverlapCountingBackend : public IndexBackend {
 public:
  explicit OverlapCountingBackend(NNCellIndex* index) : index_(index) {}

  size_t dim() const override { return index_->dim(); }
  bool durable() const override { return index_->durable(); }
  StatusOr<std::vector<QueryResult>> QueryBatch(
      const PointSet& queries, const ApproxOptions& approx) const override {
    InFlight call(this);
    return index_->QueryBatch(queries, approx);
  }
  StatusOr<uint64_t> Insert(const std::vector<double>& point) override {
    InFlight call(this);
    return index_->Insert(point);
  }
  Status Delete(uint64_t id) override {
    InFlight call(this);
    return index_->Delete(id);
  }
  Status Checkpoint() override {
    InFlight call(this);
    return index_->Checkpoint();
  }

  int max_in_flight() const { return max_in_flight_.load(); }
  int calls() const { return calls_.load(); }

 private:
  class InFlight {
   public:
    explicit InFlight(const OverlapCountingBackend* b) : b_(b) {
      const int now = b_->in_flight_.fetch_add(1) + 1;
      int seen = b_->max_in_flight_.load();
      while (now > seen &&
             !b_->max_in_flight_.compare_exchange_weak(seen, now)) {
      }
      b_->calls_.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    ~InFlight() { b_->in_flight_.fetch_sub(1); }

   private:
    const OverlapCountingBackend* b_;
  };

  NNCellIndex* index_;
  mutable std::atomic<int> in_flight_{0};
  mutable std::atomic<int> max_in_flight_{0};
  mutable std::atomic<int> calls_{0};
};

// The server makes at most one IndexBackend call at a time (server.h),
// whatever the mix of concurrent clients.
TEST_F(ServerTest, BackendCallsNeverOverlap) {
  index_->SetNumThreads(4);
  OverlapCountingBackend backend(index_.get());
  ServerOptions sopt;
  sopt.socket_path = socket_path_;
  server_ = std::make_unique<NNCellServer>(&backend, sopt);
  ASSERT_TRUE(server_->Start().ok());

  constexpr int kClients = 8;
  constexpr int kRounds = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = Connect();
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      Rng rng(0x0f1 + c);
      for (int round = 0; round < kRounds; ++round) {
        const std::vector<double> p = {rng.NextDouble(), rng.NextDouble()};
        bool ok = client->Query(p).ok();
        ok = ok && client->QueryBatch({p, {p[1], p[0]}, {0.5, 0.5}}).ok();
        auto id = client->Insert(p);
        ok = ok && id.ok() && client->Delete(*id).ok();
        if (!ok) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  ASSERT_TRUE(server_->Stop().ok());
  server_.reset();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(backend.calls(), 2 * kClients * kRounds);
  EXPECT_EQ(backend.max_in_flight(), 1);
}

TEST_F(ServerTest, CheckpointOnNonDurableIndexFails) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  Status st = client->Checkpoint();
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  // The error is a response, not a connection fault.
  EXPECT_TRUE(client->Ping().ok());
}

TEST_F(ServerTest, DimensionMismatchIsErrorNotDisconnect) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  auto r = client->Query({0.1, 0.2, 0.3});  // index is d=2
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_TRUE(client->Ping().ok());
  EXPECT_EQ(server_->malformed(), 0u);
}

TEST_F(ServerTest, NonFiniteQueryIsMalformedAndKeepsConnection) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  std::string query;
  EncodePointPayload({0.5, std::numeric_limits<double>::quiet_NaN()}, &query);
  std::string frame;
  EncodeFrame(kReqQuery, 8, query, &frame);
  ASSERT_TRUE(client->SendRaw(frame).ok());
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(client->RecvFrame(&header, &payload).ok());
  uint8_t status = 0;
  std::string_view body;
  std::string message;
  ASSERT_TRUE(DecodeStatusPayload(payload, &status, &body, &message).ok());
  EXPECT_EQ(status, kStatusMalformed) << message;
  // The next valid query on the same connection is answered.
  auto r = client->Query({0.5, 0.5});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto direct = index_->Query(std::vector<double>{0.5, 0.5}.data());
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(r->id, direct->id);
}

TEST_F(ServerTest, BadMagicGetsErrorFrameAndClose) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  std::string frame;
  EncodeFrame(kReqPing, 5, "", &frame);
  frame[0] ^= 0xff;
  ASSERT_TRUE(client->SendRaw(frame).ok());
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(client->RecvFrame(&header, &payload).ok());
  uint8_t status = 0;
  std::string_view body;
  std::string message;
  ASSERT_TRUE(DecodeStatusPayload(payload, &status, &body, &message).ok());
  EXPECT_EQ(status, kStatusMalformed);
  // The stream cannot be resynchronized: the server closes deliberately.
  Status eof = client->RecvFrame(&header, &payload);
  EXPECT_FALSE(eof.ok());
  EXPECT_EQ(server_->malformed(), 1u);
}

TEST_F(ServerTest, BadCrcKeepsConnection) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  std::string frame;
  EncodeFrame(kReqDelete, 6, std::string(8, 'x'), &frame);
  frame[kFrameHeaderBytes] ^= 0xff;  // corrupt payload, CRC now mismatches
  ASSERT_TRUE(client->SendRaw(frame).ok());
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(client->RecvFrame(&header, &payload).ok());
  uint8_t status = 0;
  std::string_view body;
  std::string message;
  ASSERT_TRUE(DecodeStatusPayload(payload, &status, &body, &message).ok());
  EXPECT_EQ(status, kStatusMalformed);
  // Framing stayed intact, so the connection survives.
  EXPECT_TRUE(client->Ping().ok());
  EXPECT_EQ(server_->malformed(), 1u);
}

TEST_F(ServerTest, UnknownTypeKeepsConnection) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  std::string frame;
  EncodeFrame(99, 7, "", &frame);
  ASSERT_TRUE(client->SendRaw(frame).ok());
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(client->RecvFrame(&header, &payload).ok());
  uint8_t status = 0;
  std::string_view body;
  std::string message;
  ASSERT_TRUE(DecodeStatusPayload(payload, &status, &body, &message).ok());
  EXPECT_EQ(status, kStatusMalformed);
  EXPECT_TRUE(client->Ping().ok());
}

TEST_F(ServerTest, OversizedLengthCloses) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  std::string frame;
  EncodeFrame(kReqPing, 8, "", &frame);
  frame[19] = 0x7f;  // payload_len high byte: ~2GB, over kFrameMaxPayload
  ASSERT_TRUE(client->SendRaw(frame).ok());
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(client->RecvFrame(&header, &payload).ok());
  uint8_t status = 0;
  std::string_view body;
  std::string message;
  ASSERT_TRUE(DecodeStatusPayload(payload, &status, &body, &message).ok());
  EXPECT_EQ(status, kStatusMalformed);
  EXPECT_FALSE(client->RecvFrame(&header, &payload).ok());
}

TEST_F(ServerTest, TruncatedPayloadCloses) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  std::string frame;
  EncodeFrame(kReqQuery, 9, std::string(100, 'q'), &frame);
  // Send the header plus 10 of the 100 payload bytes, then half-close.
  ASSERT_TRUE(client->SendRaw(frame.substr(0, kFrameHeaderBytes + 10)).ok());
  ASSERT_EQ(::shutdown(client->fd(), SHUT_WR), 0);
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(client->RecvFrame(&header, &payload).ok());
  uint8_t status = 0;
  std::string_view body;
  std::string message;
  ASSERT_TRUE(DecodeStatusPayload(payload, &status, &body, &message).ok());
  EXPECT_EQ(status, kStatusMalformed);
  EXPECT_FALSE(client->RecvFrame(&header, &payload).ok());

  // The server survives for fresh connections.
  auto again = Connect();
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->Ping().ok());
}

TEST_F(ServerTest, BackpressureIsExplicitRetryLater) {
  ServerOptions sopt;
  sopt.max_queue = 1;
  StartServer(sopt);
  auto client = Connect();
  ASSERT_TRUE(client.ok());

  // Pipeline many queries without reading responses: the reader thread
  // outruns the single dispatcher, so admissions hit the full queue.
  const size_t kPipelined = 400;
  std::string out;
  std::string query_payload;
  EncodePointPayload({0.3, 0.7}, &query_payload);
  for (size_t i = 0; i < kPipelined; ++i) {
    EncodeFrame(kReqQuery, 100 + i, query_payload, &out);
  }
  ASSERT_TRUE(client->SendRaw(out).ok());

  // Every request gets exactly one response: OK or RETRY_LATER. Rejections
  // are written immediately by the reader thread and may overtake queued
  // OK responses, so responses are matched by request id, not position.
  std::set<uint64_t> seen;
  size_t ok = 0, retry = 0;
  for (size_t i = 0; i < kPipelined; ++i) {
    FrameHeader header;
    std::string payload;
    ASSERT_TRUE(client->RecvFrame(&header, &payload).ok()) << "frame " << i;
    ASSERT_GE(header.request_id, 100u);
    ASSERT_LT(header.request_id, 100 + kPipelined);
    EXPECT_TRUE(seen.insert(header.request_id).second)
        << "duplicate response for request " << header.request_id;
    uint8_t status = 0;
    std::string_view body;
    std::string message;
    ASSERT_TRUE(DecodeStatusPayload(payload, &status, &body, &message).ok());
    if (status == kStatusOk) {
      ++ok;
    } else {
      ASSERT_EQ(status, kStatusRetryLater);
      ++retry;
    }
  }
  EXPECT_EQ(seen.size(), kPipelined);
  EXPECT_EQ(ok + retry, kPipelined);
  EXPECT_GT(retry, 0u) << "queue of 1 never filled -- timing anomaly";
  EXPECT_GT(ok, 0u);
  EXPECT_EQ(server_->rejected(), retry);

  // Conservation at quiescence.
  EXPECT_EQ(server_->accepted(), server_->completed() + server_->rejected());
}

TEST_F(ServerTest, ConservationAfterDrain) {
  StartServer();
  {
    auto client = Connect();
    ASSERT_TRUE(client.ok());
    for (int i = 0; i < 25; ++i) {
      ASSERT_TRUE(client->Query({0.2, 0.8}).ok());
    }
    auto id = client->Insert({0.9, 0.9});
    ASSERT_TRUE(id.ok());
  }
  ASSERT_TRUE(server_->Stop().ok());
  EXPECT_EQ(server_->accepted(), 26u);
  EXPECT_EQ(server_->accepted(), server_->completed() + server_->rejected());
  server_.reset();
}

TEST_F(ServerTest, StopAnswersQueuedRequestsBeforeExit) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  // Pipeline queries, then immediately drain. Every admitted request must
  // still be answered (graceful drain, not abort).
  const size_t kPipelined = 50;
  std::string out;
  std::string query_payload;
  EncodePointPayload({0.6, 0.1}, &query_payload);
  for (size_t i = 0; i < kPipelined; ++i) {
    EncodeFrame(kReqQuery, i + 1, query_payload, &out);
  }
  ASSERT_TRUE(client->SendRaw(out).ok());
  ASSERT_TRUE(server_->Stop().ok());
  EXPECT_EQ(server_->accepted(), server_->completed() + server_->rejected());

  size_t answered = 0;
  for (;;) {
    FrameHeader header;
    std::string payload;
    if (!client->RecvFrame(&header, &payload).ok()) break;
    ++answered;
  }
  EXPECT_EQ(answered, server_->completed() + server_->rejected());
  server_.reset();
}

// --- fuzz: 10k garbage frames, fixed seed --------------------------------

TEST_F(ServerTest, FuzzSurvives10kGarbageFrames) {
  StartServer();
  Rng rng(0xf022);
  std::string garbage;
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  size_t reconnects = 0;
  for (int i = 0; i < 10000; ++i) {
    garbage.clear();
    const int shape = static_cast<int>(rng.NextIndex(4));
    if (shape == 0) {
      // Pure noise.
      const size_t n = rng.NextIndex(64);
      for (size_t k = 0; k < n; ++k) {
        garbage.push_back(static_cast<char>(rng.NextU64() & 0xff));
      }
    } else if (shape == 1) {
      // Valid header bytes, garbage payload of the advertised length.
      const size_t n = rng.NextIndex(32);
      std::string payload;
      for (size_t k = 0; k < n; ++k) {
        payload.push_back(static_cast<char>(rng.NextU64() & 0xff));
      }
      EncodeFrame(static_cast<uint8_t>(rng.NextIndex(16)), rng.NextU64(),
                  payload, &garbage);
      // Half the time, break the CRC after the fact.
      if (n > 0 && rng.NextIndex(2) == 0) {
        garbage[kFrameHeaderBytes] ^= 0x5a;
      }
    } else if (shape == 2) {
      // A truncated prefix of a valid frame.
      std::string full;
      EncodeFrame(kReqQuery, rng.NextU64(), std::string(24, 'z'), &full);
      garbage = full.substr(0, rng.NextIndex(full.size()));
    } else {
      // A well-formed ping (keeps some streams in sync).
      EncodeFrame(kReqPing, rng.NextU64(), "", &garbage);
    }
    if (!garbage.empty() && !client->SendRaw(garbage).ok()) {
      client = Connect();
      ASSERT_TRUE(client.ok()) << "reconnect " << reconnects;
      ++reconnects;
      continue;
    }
    // Periodically rotate the connection; never read responses -- the
    // server must not block on a client that ignores its error frames.
    if (i % 50 == 49) {
      client = Connect();
      ASSERT_TRUE(client.ok()) << "rotate at " << i;
    }
  }
  // The server is alive and still speaks the protocol.
  auto probe = Connect();
  ASSERT_TRUE(probe.ok());
  EXPECT_TRUE(probe->Ping().ok());
  auto r = probe->Query({0.5, 0.5});
  EXPECT_TRUE(r.ok());
}

// --- socket failpoint regression (fault-injection sites) ------------------

#if NNCELL_FAILPOINTS

class SocketFailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    failpoint::DisarmAll();
    ::close(fds_[0]);
    ::close(fds_[1]);
  }
  int fds_[2];
};

TEST_F(SocketFailpointTest, ReadErrorFiresBeforeConsuming) {
  ASSERT_EQ(::send(fds_[1], "abcdefgh", 8, 0), 8);
  const uint64_t before = failpoint::Evaluations("server.socket.read");
  failpoint::Arm("server.socket.read", failpoint::Action::kError);
  char buf[8];
  Status st = ReadFull(fds_[0], buf, sizeof(buf));
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("injected read error"), std::string::npos);
  // kError fails before touching the socket: the bytes are still there.
  // (The one-shot disarmed itself when it fired, so only the armed check
  // counts toward Evaluations.)
  Status again = ReadFull(fds_[0], buf, sizeof(buf));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(std::memcmp(buf, "abcdefgh", 8), 0);
  EXPECT_GE(failpoint::Evaluations("server.socket.read"), before + 1);
}

TEST_F(SocketFailpointTest, ShortReadConsumesHalf) {
  ASSERT_EQ(::send(fds_[1], "abcdefgh", 8, 0), 8);
  failpoint::Arm("server.socket.read", failpoint::Action::kShortWrite);
  char buf[8];
  Status st = ReadFull(fds_[0], buf, sizeof(buf));
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("injected short read"), std::string::npos);
  // Exactly half was consumed; the rest is still in the stream.
  char rest[4];
  Status tail = ReadFull(fds_[0], rest, sizeof(rest));
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(std::memcmp(rest, "efgh", 4), 0);
}

TEST_F(SocketFailpointTest, WriteErrorAndShortWrite) {
  failpoint::Arm("server.socket.write", failpoint::Action::kError);
  Status st = WriteFull(fds_[0], "abcdefgh");
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("injected write error"), std::string::npos);

  failpoint::Arm("server.socket.write", failpoint::Action::kShortWrite);
  st = WriteFull(fds_[0], "abcdefgh");
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("injected short write"), std::string::npos);
  // The torn half-write is on the wire, as a real ENOSPC/reset would leave.
  char buf[4];
  ASSERT_TRUE(ReadFull(fds_[1], buf, 4).ok());
  EXPECT_EQ(std::memcmp(buf, "abcd", 4), 0);
}

TEST_F(ServerTest, ServerSurvivesInjectedReadFault) {
  StartServer();
  // Raw fd so the client side bypasses ReadFull/WriteFull (the failpoint
  // must hit the server's reader, not the test's own helpers).
  auto raw = ConnectUnix(socket_path_);
  ASSERT_TRUE(raw.ok());
  std::string frame;
  EncodeFrame(kReqPing, 1, "", &frame);

  // Depending on whether the reader has reached its blocking header
  // ReadFull before Arm below, the fault fires either on the ping's own
  // header read (no response, immediate EOF) or on the read after the
  // ping is answered (response, then EOF on our close). Both are correct;
  // the test asserts only what must hold in every interleaving: the torn
  // connection never wedges, and the server keeps serving.
  failpoint::Arm("server.socket.read", failpoint::Action::kError);
  ASSERT_EQ(::send(*raw, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  struct timeval tv = {2, 0};  // bound the drain; never hang the test
  ASSERT_EQ(::setsockopt(*raw, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)), 0);
  char buf[256];
  for (;;) {
    ssize_t r = ::recv(*raw, buf, sizeof(buf), 0);
    if (r <= 0) break;  // EOF (connection torn) or timeout (ping answered)
  }
  ::close(*raw);
  failpoint::DisarmAll();

  // The fault tore at most one connection, not the server.
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client->Ping().ok());
  EXPECT_TRUE(client->Query({0.1, 0.4}).ok());
}

#endif  // NNCELL_FAILPOINTS

}  // namespace
}  // namespace server
}  // namespace nncell
