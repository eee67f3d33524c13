#include "core/checkpoint.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph_generators.h"
#include "util/fs.h"
#include "util/random.h"

namespace prefcover {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/checkpoint_test_" + name;
}

PreferenceGraph MakeGraph(uint64_t seed = 7) {
  Rng rng(seed);
  UniformGraphParams params;
  params.num_nodes = 60;
  params.out_degree = 4;
  auto g = GenerateUniformGraph(params, &rng);
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

Checkpoint MakeCheckpoint(const PreferenceGraph& graph,
                          const GreedyOptions& options, size_t k,
                          std::vector<NodeId> prefix) {
  Checkpoint ckpt;
  ckpt.graph_digest = GraphDigest(graph);
  ckpt.options_hash = GreedyOptionsHash(options, k);
  ckpt.variant = options.variant;
  ckpt.k = k;
  ckpt.prefix = std::move(prefix);
  return ckpt;
}

TEST(CheckpointIoTest, RoundTrip) {
  PreferenceGraph graph = MakeGraph();
  GreedyOptions options;
  Checkpoint ckpt = MakeCheckpoint(graph, options, 10, {3, 1, 41});
  std::string path = TempPath("roundtrip.ckpt");
  ASSERT_TRUE(WriteCheckpoint(path, ckpt).ok());

  auto read = ReadCheckpoint(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->graph_digest, ckpt.graph_digest);
  EXPECT_EQ(read->options_hash, ckpt.options_hash);
  EXPECT_EQ(read->variant, ckpt.variant);
  EXPECT_EQ(read->k, ckpt.k);
  EXPECT_EQ(read->prefix, ckpt.prefix);
}

TEST(CheckpointIoTest, RoundTripEmptyPrefix) {
  PreferenceGraph graph = MakeGraph();
  GreedyOptions options;
  options.variant = Variant::kNormalized;
  Checkpoint ckpt = MakeCheckpoint(graph, options, 5, {});
  std::string path = TempPath("empty_prefix.ckpt");
  ASSERT_TRUE(WriteCheckpoint(path, ckpt).ok());
  auto read = ReadCheckpoint(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->variant, Variant::kNormalized);
  EXPECT_TRUE(read->prefix.empty());
}

TEST(CheckpointIoTest, MissingFileIsIOError) {
  auto read = ReadCheckpoint(TempPath("never_written.ckpt"));
  EXPECT_TRUE(read.status().IsIOError());
}

TEST(CheckpointIoTest, EveryTruncationRejected) {
  PreferenceGraph graph = MakeGraph();
  Checkpoint ckpt = MakeCheckpoint(graph, GreedyOptions(), 8, {5, 2, 9});
  std::string path = TempPath("trunc_src.ckpt");
  ASSERT_TRUE(WriteCheckpoint(path, ckpt).ok());
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());

  std::string cut_path = TempPath("trunc_cut.ckpt");
  for (size_t cut = 0; cut < bytes->size(); ++cut) {
    ASSERT_TRUE(WriteFileAtomic(cut_path, bytes->substr(0, cut)).ok());
    auto read = ReadCheckpoint(cut_path);
    EXPECT_TRUE(read.status().IsCorruption()) << "cut at " << cut;
  }
}

TEST(CheckpointIoTest, EveryByteFlipRejected) {
  PreferenceGraph graph = MakeGraph();
  Checkpoint ckpt = MakeCheckpoint(graph, GreedyOptions(), 8, {5, 2, 9});
  std::string path = TempPath("flip_src.ckpt");
  ASSERT_TRUE(WriteCheckpoint(path, ckpt).ok());
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());

  std::string flip_path = TempPath("flip_dst.ckpt");
  for (size_t i = 0; i < bytes->size(); ++i) {
    std::string corrupted = *bytes;
    corrupted[i] = static_cast<char>(corrupted[i] ^ 0x20);
    ASSERT_TRUE(WriteFileAtomic(flip_path, corrupted).ok());
    auto read = ReadCheckpoint(flip_path);
    EXPECT_TRUE(read.status().IsCorruption()) << "flip at byte " << i;
  }
}

TEST(CheckpointIoTest, TrailingGarbageRejected) {
  PreferenceGraph graph = MakeGraph();
  Checkpoint ckpt = MakeCheckpoint(graph, GreedyOptions(), 8, {5});
  std::string path = TempPath("garbage.ckpt");
  ASSERT_TRUE(WriteCheckpoint(path, ckpt).ok());
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(WriteFileAtomic(path, *bytes + "extra").ok());
  EXPECT_TRUE(ReadCheckpoint(path).status().IsCorruption());
}

TEST(CheckpointIoTest, ForeignFileRejected) {
  std::string path = TempPath("foreign.ckpt");
  ASSERT_TRUE(
      WriteFileAtomic(path, "this is not a checkpoint file at all....")
          .ok());
  EXPECT_TRUE(ReadCheckpoint(path).status().IsCorruption());
}

TEST(GraphDigestTest, StableAndSensitive) {
  PreferenceGraph a = MakeGraph(7);
  PreferenceGraph a_again = MakeGraph(7);
  PreferenceGraph b = MakeGraph(8);
  EXPECT_EQ(GraphDigest(a), GraphDigest(a_again));
  EXPECT_NE(GraphDigest(a), GraphDigest(b));
}

TEST(GreedyOptionsHashTest, SensitiveToSelectionOrderInputs) {
  GreedyOptions base;
  const uint64_t h = GreedyOptionsHash(base, 10);
  EXPECT_EQ(GreedyOptionsHash(base, 10), h);

  EXPECT_NE(GreedyOptionsHash(base, 11), h);

  GreedyOptions variant = base;
  variant.variant = Variant::kNormalized;
  EXPECT_NE(GreedyOptionsHash(variant, 10), h);

  GreedyOptions stop = base;
  stop.stop_at_cover = 0.9;
  EXPECT_NE(GreedyOptionsHash(stop, 10), h);

  GreedyOptions include = base;
  include.force_include = {3};
  EXPECT_NE(GreedyOptionsHash(include, 10), h);

  GreedyOptions exclude = base;
  exclude.force_exclude = {3};
  EXPECT_NE(GreedyOptionsHash(exclude, 10), h);
  // include={3} and exclude={3} must not collide with each other either.
  EXPECT_NE(GreedyOptionsHash(exclude, 10),
            GreedyOptionsHash(include, 10));
}

TEST(GreedyOptionsHashTest, InsensitiveToExecutionKnobs) {
  // seed_heap_capacity, cancellation and checkpoint wiring do not affect
  // the selected sequence, so a resume may legally change them.
  GreedyOptions base;
  const uint64_t h = GreedyOptionsHash(base, 10);

  GreedyOptions capped = base;
  capped.seed_heap_capacity = 64;
  EXPECT_EQ(GreedyOptionsHash(capped, 10), h);

  CancelToken token;
  GreedyOptions cancellable = base;
  cancellable.cancel = &token;
  EXPECT_EQ(GreedyOptionsHash(cancellable, 10), h);

  GreedyOptions checkpointed = base;
  checkpointed.checkpoint.path = "/tmp/somewhere.ckpt";
  checkpointed.checkpoint.every_rounds = 3;
  EXPECT_EQ(GreedyOptionsHash(checkpointed, 10), h);
}

class ValidateCheckpointTest : public ::testing::Test {
 protected:
  ValidateCheckpointTest() : graph_(MakeGraph()) {}

  PreferenceGraph graph_;
  GreedyOptions options_;
  const size_t k_ = 10;
};

TEST_F(ValidateCheckpointTest, MatchingCheckpointReturnsPrefix) {
  Checkpoint ckpt = MakeCheckpoint(graph_, options_, k_, {4, 17, 2});
  auto prefix = ValidateCheckpointForResume(ckpt, graph_, k_, options_);
  ASSERT_TRUE(prefix.ok()) << prefix.status().ToString();
  EXPECT_EQ(*prefix, (std::vector<NodeId>{4, 17, 2}));
}

TEST_F(ValidateCheckpointTest, WrongGraphRejected) {
  PreferenceGraph other = MakeGraph(99);
  Checkpoint ckpt = MakeCheckpoint(other, options_, k_, {4});
  auto prefix = ValidateCheckpointForResume(ckpt, graph_, k_, options_);
  EXPECT_TRUE(prefix.status().IsFailedPrecondition());
}

TEST_F(ValidateCheckpointTest, WrongOptionsRejected) {
  GreedyOptions other = options_;
  other.force_exclude = {1};
  Checkpoint ckpt = MakeCheckpoint(graph_, other, k_, {4});
  auto prefix = ValidateCheckpointForResume(ckpt, graph_, k_, options_);
  EXPECT_TRUE(prefix.status().IsFailedPrecondition());
}

TEST_F(ValidateCheckpointTest, WrongBudgetRejected) {
  Checkpoint ckpt = MakeCheckpoint(graph_, options_, k_, {4});
  auto prefix = ValidateCheckpointForResume(ckpt, graph_, k_ + 1, options_);
  EXPECT_TRUE(prefix.status().IsFailedPrecondition());
}

TEST_F(ValidateCheckpointTest, WrongVariantRejected) {
  Checkpoint ckpt = MakeCheckpoint(graph_, options_, k_, {4});
  GreedyOptions normalized = options_;
  normalized.variant = Variant::kNormalized;
  auto prefix =
      ValidateCheckpointForResume(ckpt, graph_, k_, normalized);
  EXPECT_FALSE(prefix.ok());
}

TEST_F(ValidateCheckpointTest, OutOfRangePrefixRejected) {
  Checkpoint ckpt = MakeCheckpoint(
      graph_, options_, k_,
      {static_cast<NodeId>(graph_.NumNodes())});
  auto prefix = ValidateCheckpointForResume(ckpt, graph_, k_, options_);
  EXPECT_FALSE(prefix.ok());
}

TEST_F(ValidateCheckpointTest, DuplicatePrefixRejected) {
  Checkpoint ckpt = MakeCheckpoint(graph_, options_, k_, {4, 4});
  auto prefix = ValidateCheckpointForResume(ckpt, graph_, k_, options_);
  EXPECT_FALSE(prefix.ok());
}

TEST_F(ValidateCheckpointTest, ExcludedPrefixItemRejected) {
  GreedyOptions excluding = options_;
  excluding.force_exclude = {17};
  Checkpoint ckpt = MakeCheckpoint(graph_, excluding, k_, {4, 17});
  auto prefix =
      ValidateCheckpointForResume(ckpt, graph_, k_, excluding);
  EXPECT_FALSE(prefix.ok());
}

TEST_F(ValidateCheckpointTest, OverBudgetPrefixRejected) {
  std::vector<NodeId> too_long(k_ + 1);
  for (size_t i = 0; i < too_long.size(); ++i) {
    too_long[i] = static_cast<NodeId>(i);
  }
  Checkpoint ckpt =
      MakeCheckpoint(graph_, options_, k_, std::move(too_long));
  auto prefix = ValidateCheckpointForResume(ckpt, graph_, k_, options_);
  EXPECT_FALSE(prefix.ok());
}

}  // namespace
}  // namespace prefcover
