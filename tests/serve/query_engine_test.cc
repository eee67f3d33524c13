// QueryEngine: inline answers, the `stats` line, the pause seam, hot
// reload and the reload failpoint.

#include "serve/query_engine.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/greedy_solver.h"
#include "graph/graph_generators.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/serving_index.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace prefcover {
namespace serve {
namespace {

std::shared_ptr<const ServingIndex> MakeIndex(uint64_t seed = 3,
                                              uint32_t num_nodes = 60,
                                              size_t k = 12) {
  Rng rng(seed);
  UniformGraphParams params;
  params.num_nodes = num_nodes;
  params.out_degree = 4;
  auto graph = GenerateUniformGraph(params, &rng);
  EXPECT_TRUE(graph.ok());
  auto solution = SolveGreedyLazy(*graph, k, GreedyOptions());
  EXPECT_TRUE(solution.ok());
  auto index = ServingIndex::Build(*graph, *solution);
  EXPECT_TRUE(index.ok());
  return std::make_shared<const ServingIndex>(std::move(index).value());
}

Request Covered(NodeId v) {
  Request request;
  request.type = QueryType::kCovered;
  request.v = v;
  return request;
}

Request Subs(NodeId v, uint32_t top_j) {
  Request request;
  request.type = QueryType::kSubstitutes;
  request.v = v;
  request.top_j = top_j;
  return request;
}

TEST(QueryEngineTest, AnswersMatchAnswerOnIndex) {
  auto index = MakeIndex();
  QueryEngine engine(index);
  for (NodeId v = 0; v < index->NumNodes(); ++v) {
    Response served = engine.SubmitAndWait(Covered(v));
    Response direct = AnswerOnIndex(*index, Covered(v));
    EXPECT_EQ(served.line, direct.line);

    Response served_subs = engine.SubmitAndWait(Subs(v, 4));
    EXPECT_EQ(served_subs.line, AnswerOnIndex(*index, Subs(v, 4)).line);
  }
  // Out-of-catalog errors travel through the engine unchanged.
  const NodeId bad = static_cast<NodeId>(index->NumNodes());
  EXPECT_TRUE(engine.SubmitAndWait(Covered(bad)).status.IsNotFound());
  EXPECT_EQ(engine.Stats().requests, 2 * index->NumNodes() + 1);
}

TEST(QueryEngineTest, AnswerLineIsParseThenAnswer) {
  auto index = MakeIndex();
  QueryEngine engine(index);
  for (const char* line :
       {"covered 3", "subs 5 4", "coverk 2", "batch 0 1 2", "covered 999"}) {
    EXPECT_EQ(engine.AnswerLine(line),
              AnswerOnIndex(*index, ParseRequest(line).value()).line)
        << line;
  }
  // Unparseable lines get the parser's error and are not requests.
  for (const char* line : {"bogus 1", "covered", "subs 1"}) {
    EXPECT_EQ(engine.AnswerLine(line),
              FormatErrorLine(ParseRequest(line).status()))
        << line;
  }
  EXPECT_EQ(engine.Stats().requests, 5u);
}

TEST(QueryEngineTest, StatsLineKeepsItsKeys) {
  QueryEngine engine(MakeIndex());
  bool quit = false;
  for (int i = 0; i < 4; ++i) {
    HandleServeLine(&engine, "covered " + std::to_string(i), &quit);
  }
  HandleServeLine(&engine, "not a query", &quit);
  ASSERT_TRUE(engine.SwapIndex(MakeIndex(9)).ok());
  // Every request is its own batch; nothing is cached, shed or expired.
  EXPECT_EQ(HandleServeLine(&engine, "stats", &quit),
            "OK stats requests=4 batches=4 cache_hits=0 cache_misses=0 "
            "shed=0 deadline_expired=0 deadline_shed=0 brownout=0 "
            "reloads=1");
  EXPECT_FALSE(quit);
}

TEST(QueryEngineTest, ConcurrentCallersMatchAnswerOnIndex) {
  auto index = MakeIndex(5, 120, 20);
  QueryEngine engine(index);
  constexpr size_t kThreads = 4;
  constexpr NodeId kRounds = 3;
  std::vector<std::thread> threads;
  std::vector<int> mismatches(kThreads, 0);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (NodeId round = 0; round < kRounds; ++round) {
        for (NodeId v = 0; v < index->NumNodes(); ++v) {
          const Request request =
              (v + static_cast<NodeId>(t)) % 2 == 0 ? Covered(v) : Subs(v, 3);
          if (engine.SubmitAndWait(request).line !=
              AnswerOnIndex(*index, request).line) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;
  EXPECT_EQ(engine.Stats().requests, kThreads * kRounds * index->NumNodes());
}

TEST(QueryEngineTest, SetPausedHoldsAnswersUntilResumed) {
  auto index = MakeIndex();
  QueryEngine engine(index);
  engine.SetPaused(true);
  std::atomic<bool> answered{false};
  std::thread caller([&] {
    EXPECT_EQ(engine.AnswerLine("covered 1"),
              AnswerOnIndex(*index, Covered(1)).line);
    answered.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(answered.load());
  EXPECT_EQ(engine.Stats().requests, 0u);
  engine.SetPaused(false);
  caller.join();
  EXPECT_TRUE(answered.load());
  EXPECT_EQ(engine.Stats().requests, 1u);
}

TEST(QueryEngineTest, SwapIndexPublishesNewAnswers) {
  auto first = MakeIndex(3, 60, 12);
  auto second = MakeIndex(99, 60, 12);
  QueryEngine engine(first);

  NodeId v = 0;
  while (first->Retained(v)) ++v;
  Response before = engine.SubmitAndWait(Subs(v, 4));
  ASSERT_TRUE(before.status.ok());
  EXPECT_EQ(before.line, AnswerOnIndex(*first, Subs(v, 4)).line);

  ASSERT_TRUE(engine.SwapIndex(second).ok());
  EXPECT_EQ(engine.index().get(), second.get());
  EXPECT_EQ(engine.Stats().index_reloads, 1u);

  // Answers now come from the second index.
  Response after = engine.SubmitAndWait(Subs(v, 4));
  ASSERT_TRUE(after.status.ok());
  EXPECT_EQ(after.line, AnswerOnIndex(*second, Subs(v, 4)).line);
}

TEST(QueryEngineTest, SwapIndexRejectsNull) {
  QueryEngine engine(MakeIndex());
  EXPECT_TRUE(engine.SwapIndex(nullptr).IsInvalidArgument());
  EXPECT_EQ(engine.Stats().index_reloads, 0u);
}

TEST(QueryEngineTest, ReloadSwapFailpointInjectsError) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  QueryEngine engine(MakeIndex());
  auto replacement = MakeIndex(7);
  ASSERT_TRUE(failpoint::Set("serve.reload_swap", "error").ok());
  Status status = engine.SwapIndex(replacement);
  failpoint::Clear();
  EXPECT_FALSE(status.ok());
  // The failed swap must not have been published.
  EXPECT_NE(engine.index().get(), replacement.get());
  EXPECT_EQ(engine.Stats().index_reloads, 0u);
  // And the engine still serves.
  EXPECT_TRUE(engine.SubmitAndWait(Covered(0)).status.ok());
}

}  // namespace
}  // namespace serve
}  // namespace prefcover
