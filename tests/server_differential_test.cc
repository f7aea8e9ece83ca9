// Differential oracle for the query service: the same seeded workload is
// driven twice -- through a live server over its wire protocol, and
// directly against an NNCellIndex built with identical options -- and
// every response must match. Covers all four approximation algorithms at
// d = 2, 8, 16, and (separately) a durable server that is SIGTERM-drained,
// checkpointed and restarted mid-workload: the reopened server must keep
// answering exactly like the never-restarted oracle. A ShardedIndex served
// in-process must answer exactly like a served plain index.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nncell/nncell_index.h"
#include "server/client.h"
#include "server/server.h"
#include "shard/sharded_index.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "test_printers.h"

namespace nncell {
namespace server {
namespace {

NNCellOptions Options(ApproxAlgorithm alg) {
  NNCellOptions opts;
  opts.algorithm = alg;
  return opts;
}

struct Oracle {
  std::unique_ptr<PageFile> file;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<NNCellIndex> index;

  Oracle(size_t dim, ApproxAlgorithm alg) {
    file = std::make_unique<PageFile>(4096);
    pool = std::make_unique<BufferPool>(file.get(), 2048);
    index = std::make_unique<NNCellIndex>(pool.get(), dim, Options(alg));
    // A few dozen points would plan a scan; the cell probe keeps the
    // served queries traversing the cell tree (and the candidate counts
    // compared below are the paper's).
    index->SetExactPlan(ExactPlan::kCellProbe);
  }
};

// One deterministic mixed workload: preload inserts, then interleaved
// queries / inserts / deletes. Every response from the server is compared
// against the directly-driven oracle as it happens.
void RunDifferentialWorkload(Client& client, NNCellIndex& oracle, size_t dim,
                             uint64_t seed) {
  Rng rng(seed);
  auto random_point = [&] {
    std::vector<double> p(dim);
    for (double& v : p) v = rng.NextDouble();
    return p;
  };

  std::vector<uint64_t> live;
  for (int i = 0; i < 30; ++i) {
    auto p = random_point();
    auto sid = client.Insert(p);
    ASSERT_TRUE(sid.ok()) << sid.status().ToString();
    auto oid = oracle.Insert(p);
    ASSERT_TRUE(oid.ok());
    ASSERT_EQ(*sid, *oid) << "insert " << i;
    live.push_back(*sid);
  }

  for (int op = 0; op < 40; ++op) {
    const uint64_t pick = rng.NextIndex(10);
    if (pick < 6) {
      // query
      auto q = random_point();
      auto sr = client.Query(q);
      ASSERT_TRUE(sr.ok()) << sr.status().ToString();
      auto orr = oracle.Query(q.data());
      ASSERT_TRUE(orr.ok());
      ASSERT_EQ(sr->id, orr->id) << "op " << op;
      ASSERT_EQ(sr->dist, orr->dist) << "op " << op;
      ASSERT_EQ(sr->candidates, orr->candidates) << "op " << op;
      ASSERT_EQ(sr->used_fallback, orr->used_fallback ? 1 : 0) << "op " << op;
      ASSERT_EQ(sr->point.size(), dim);
      for (size_t d = 0; d < dim; ++d) {
        ASSERT_EQ(sr->point[d], orr->point[d]) << "op " << op << " dim " << d;
      }
    } else if (pick < 8) {
      // batch of 3 queries
      std::vector<std::vector<double>> qs = {random_point(), random_point(),
                                             random_point()};
      auto srs = client.QueryBatch(qs);
      ASSERT_TRUE(srs.ok()) << srs.status().ToString();
      ASSERT_EQ(srs->size(), qs.size());
      for (size_t i = 0; i < qs.size(); ++i) {
        auto orr = oracle.Query(qs[i].data());
        ASSERT_TRUE(orr.ok());
        ASSERT_EQ((*srs)[i].id, orr->id) << "op " << op << " q " << i;
        ASSERT_EQ((*srs)[i].dist, orr->dist) << "op " << op << " q " << i;
      }
    } else if (pick == 8) {
      // insert
      auto p = random_point();
      auto sid = client.Insert(p);
      ASSERT_TRUE(sid.ok());
      auto oid = oracle.Insert(p);
      ASSERT_TRUE(oid.ok());
      ASSERT_EQ(*sid, *oid) << "op " << op;
      live.push_back(*sid);
    } else if (!live.empty()) {
      // delete
      const size_t victim = rng.NextIndex(live.size());
      const uint64_t id = live[victim];
      live.erase(live.begin() + victim);
      ASSERT_TRUE(client.Delete(id).ok()) << "op " << op;
      ASSERT_TRUE(oracle.Delete(id).ok());
      ASSERT_FALSE(oracle.IsAlive(id));
    }
  }
}

class ServerDifferentialTest
    : public ::testing::TestWithParam<std::tuple<ApproxAlgorithm, size_t>> {};

TEST_P(ServerDifferentialTest, ServerMatchesDirectIndex) {
  const auto [alg, dim] = GetParam();
  const std::string socket_path =
      ::testing::TempDir() + "server_diff_" + std::to_string(static_cast<int>(alg)) +
      "_" + std::to_string(dim) + ".sock";
  std::filesystem::remove(socket_path);

  Oracle served(dim, alg);
  Oracle oracle(dim, alg);
  ServerOptions sopt;
  sopt.socket_path = socket_path;
  NNCellServer server(served.index.get(), sopt);
  ASSERT_TRUE(server.Start().ok());

  {
    auto client = Client::ConnectUnix(socket_path);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    RunDifferentialWorkload(*client, *oracle.index, dim,
                            0xd1ff + dim * 131 + static_cast<int>(alg));
  }
  ASSERT_TRUE(server.Stop().ok());
  EXPECT_EQ(server.accepted(), server.completed() + server.rejected());
  std::filesystem::remove(socket_path);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsAndDims, ServerDifferentialTest,
    ::testing::Combine(::testing::Values(ApproxAlgorithm::kCorrect,
                                         ApproxAlgorithm::kPoint,
                                         ApproxAlgorithm::kSphere,
                                         ApproxAlgorithm::kNNDirection),
                       ::testing::Values(size_t{2}, size_t{8}, size_t{16})),
    [](const auto& info) {
      std::string name = ApproxAlgorithmName(std::get<0>(info.param));
      std::erase_if(name, [](char c) { return !std::isalnum(
                                           static_cast<unsigned char>(c)); });
      return name + "_d" + std::to_string(std::get<1>(info.param));
    });

// --- ShardedIndex served directly -----------------------------------------

// Both index kinds implement IndexBackend, so the server fronts a sharded
// index with no adapter. Over the same inserts its answers (ids, distances,
// points) must equal the plain-index server's; only the candidate counts
// differ (they sum over the probed shards). STATS_JSON gains the "shard"
// object for the sharded server alone.
TEST(ServerShardedTest, ShardedServerMatchesPlainServer) {
  constexpr size_t kDim = 3;
  const std::string base = ::testing::TempDir() + "server_sharded_";
  const std::string plain_sock = base + "plain.sock";
  const std::string shard_sock = base + "shard.sock";
  std::filesystem::remove(plain_sock);
  std::filesystem::remove(shard_sock);

  Oracle plain(kDim, ApproxAlgorithm::kSphere);
  ShardedOptions shopt;
  shopt.num_shards = 4;
  auto sharded =
      ShardedIndex::Create(kDim, Options(ApproxAlgorithm::kSphere), shopt);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  ServerOptions popt;
  popt.socket_path = plain_sock;
  NNCellServer plain_server(plain.index.get(), popt);
  ServerOptions sopt;
  sopt.socket_path = shard_sock;
  NNCellServer shard_server(sharded->get(), sopt);
  ASSERT_TRUE(plain_server.Start().ok());
  ASSERT_TRUE(shard_server.Start().ok());
  {
    auto pc = Client::ConnectUnix(plain_sock);
    auto sc = Client::ConnectUnix(shard_sock);
    ASSERT_TRUE(pc.ok() && sc.ok());
    Rng rng(0x5a4d);
    auto random_point = [&] {
      std::vector<double> p(kDim);
      for (double& v : p) v = rng.NextDouble();
      return p;
    };
    for (int i = 0; i < 120; ++i) {
      auto p = random_point();
      auto pid = pc->Insert(p);
      auto sid = sc->Insert(p);
      ASSERT_TRUE(pid.ok() && sid.ok()) << "insert " << i;
      ASSERT_EQ(*pid, *sid) << "insert " << i;
    }
    ASSERT_TRUE(pc->Delete(17).ok());
    ASSERT_TRUE(sc->Delete(17).ok());

    std::vector<std::vector<double>> qs;
    for (int i = 0; i < 40; ++i) qs.push_back(random_point());
    auto pr = pc->QueryBatch(qs);
    auto sr = sc->QueryBatch(qs);
    ASSERT_TRUE(pr.ok() && sr.ok());
    ASSERT_EQ(pr->size(), qs.size());
    ASSERT_EQ(sr->size(), qs.size());
    for (size_t i = 0; i < qs.size(); ++i) {
      EXPECT_EQ((*sr)[i].id, (*pr)[i].id) << "q " << i;
      EXPECT_EQ((*sr)[i].dist, (*pr)[i].dist) << "q " << i;
      EXPECT_EQ((*sr)[i].point, (*pr)[i].point) << "q " << i;
    }

    auto pstats = pc->StatsJson();
    auto sstats = sc->StatsJson();
    ASSERT_TRUE(pstats.ok() && sstats.ok());
    EXPECT_EQ(pstats->find("\"shard\":"), std::string::npos);
    EXPECT_NE(sstats->find("\"shard\":{\"count\":4,"), std::string::npos)
        << *sstats;
  }
  ASSERT_TRUE(plain_server.Stop().ok());
  ASSERT_TRUE(shard_server.Stop().ok());
  EXPECT_EQ(shard_server.accepted(),
            shard_server.completed() + shard_server.rejected());
}

// --- SIGTERM-checkpoint-restart mid-workload ------------------------------

// Child body: serve the durable index at `dir` until SIGTERM, then drain
// (which checkpoints) and exit 0. Exit codes 3..5 mark setup failures.
[[noreturn]] void RunServerChild(const std::string& dir,
                                 const std::string& socket_path) {
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGTERM);
  if (pthread_sigmask(SIG_BLOCK, &sigs, nullptr) != 0) ::_exit(3);
  NNCellIndex::DurableOptions dur;
  dur.page_size = 1024;
  dur.pool_pages = 512;
  auto idx = NNCellIndex::Open(dir, 2, Options(ApproxAlgorithm::kSphere), dur,
                               nullptr);
  if (!idx.ok()) ::_exit(4);
  ServerOptions sopt;
  sopt.socket_path = socket_path;
  NNCellServer server((*idx).get(), sopt);
  if (!server.Start().ok()) ::_exit(5);
  int sig = 0;
  (void)sigwait(&sigs, &sig);
  Status st = server.Stop();
  ::_exit(st.ok() ? 0 : 6);
}

pid_t ForkServer(const std::string& dir, const std::string& socket_path) {
  pid_t pid = ::fork();
  if (pid == 0) RunServerChild(dir, socket_path);
  return pid;
}

StatusOr<Client> ConnectWithRetry(const std::string& socket_path) {
  for (int i = 0; i < 200; ++i) {
    auto client = Client::ConnectUnix(socket_path);
    if (client.ok() && client->Ping().ok()) return client;
    ::usleep(20 * 1000);
  }
  return Status::Internal("server never became reachable at " + socket_path);
}

TEST(ServerRestartTest, SigtermCheckpointRestartKeepsAnswersIdentical) {
  const std::string base = ::testing::TempDir() + "server_restart_test";
  const std::string dir = base + "/index";
  const std::string socket_path = base + "/serve.sock";
  std::filesystem::remove_all(base);
  std::filesystem::create_directories(base);

  Oracle oracle(2, ApproxAlgorithm::kSphere);
  Rng rng(0x7e57);
  auto random_point = [&] {
    return std::vector<double>{rng.NextDouble(), rng.NextDouble()};
  };
  auto expect_query_match = [&](Client& client, int tag) {
    auto q = random_point();
    auto sr = client.Query(q);
    ASSERT_TRUE(sr.ok()) << "tag " << tag << ": " << sr.status().ToString();
    auto orr = oracle.index->Query(q.data());
    ASSERT_TRUE(orr.ok());
    ASSERT_EQ(sr->id, orr->id) << "tag " << tag;
    ASSERT_EQ(sr->dist, orr->dist) << "tag " << tag;
  };

  // Phase 1: fresh server, build up state over the wire.
  pid_t pid = ForkServer(dir, socket_path);
  ASSERT_GT(pid, 0);
  {
    auto client = ConnectWithRetry(socket_path);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    for (int i = 0; i < 25; ++i) {
      auto p = random_point();
      auto sid = client->Insert(p);
      ASSERT_TRUE(sid.ok()) << sid.status().ToString();
      auto oid = oracle.index->Insert(p);
      ASSERT_TRUE(oid.ok());
      ASSERT_EQ(*sid, *oid);
    }
    ASSERT_TRUE(client->Delete(3).ok());
    ASSERT_TRUE(oracle.index->Delete(3).ok());
    ASSERT_TRUE(client->Delete(11).ok());
    ASSERT_TRUE(oracle.index->Delete(11).ok());
    for (int i = 0; i < 10; ++i) expect_query_match(*client, 100 + i);
  }

  // Mid-workload SIGTERM: graceful drain + checkpoint, clean exit.
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), 0);

  // Phase 2: restart on the same directory; recovery must reproduce the
  // exact pre-restart state (the oracle never restarted).
  pid = ForkServer(dir, socket_path);
  ASSERT_GT(pid, 0);
  {
    auto client = ConnectWithRetry(socket_path);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    for (int i = 0; i < 10; ++i) expect_query_match(*client, 200 + i);
    // The id sequence also survived the restart.
    for (int i = 0; i < 8; ++i) {
      auto p = random_point();
      auto sid = client->Insert(p);
      ASSERT_TRUE(sid.ok()) << sid.status().ToString();
      auto oid = oracle.index->Insert(p);
      ASSERT_TRUE(oid.ok());
      ASSERT_EQ(*sid, *oid) << "post-restart insert " << i;
    }
    ASSERT_TRUE(client->Delete(20).ok());
    ASSERT_TRUE(oracle.index->Delete(20).ok());
    for (int i = 0; i < 15; ++i) expect_query_match(*client, 300 + i);
  }
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), 0);
  std::filesystem::remove_all(base);
}

}  // namespace
}  // namespace server
}  // namespace nncell
