// Storage subsystem tests (DESIGN.md §12): snapshot round-trips must be
// exact, corruption must surface as kDataLoss naming the damaged
// section (never as wrong answers), writes must be atomic under
// injected failures, the mmap path must serve bit-identical results to
// the heap path, and the out-of-core blocked join must equal the
// monolithic in-memory join while holding peak RSS within its budget.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/top_k.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "linalg/quantized.h"
#include "lsh/bucket_join.h"
#include "lsh/simhash.h"
#include "lsh/tables.h"
#include "rng/random.h"
#include "serve/engine.h"
#include "serve/sharded_engine.h"
#include "storage/blocked_join.h"
#include "storage/file.h"
#include "storage/format.h"
#include "storage/snapshot.h"
#include "tree/mips_tree.h"
#include "util/failpoint.h"
#include "util/status.h"

namespace ips {
namespace {

class StorageTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoints::DisarmAll(); }
};

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

Matrix RandomMatrix(std::size_t rows, std::size_t cols,
                    std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      m.At(i, j) = rng.NextGaussian();
    }
  }
  return m;
}

void ExpectBitwiseEqual(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      ASSERT_EQ(a.At(i, j), b.At(i, j)) << "at (" << i << ", " << j << ")";
    }
  }
}

// Flips one byte of `path` in place (bit-rot simulation).
void FlipByte(const std::string& path, std::size_t offset) {
  std::fstream file(path,
                    std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.is_open());
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(&byte, 1);
  ASSERT_TRUE(file.good());
}

// Truncates `path` to `new_size` bytes via rewrite.
void Truncate(const std::string& path, std::size_t new_size) {
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open());
  std::vector<char> bytes(new_size);
  in.read(bytes.data(), static_cast<std::streamsize>(new_size));
  ASSERT_EQ(static_cast<std::size_t>(in.gcount()), new_size);
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(new_size));
  ASSERT_TRUE(out.good());
}

std::size_t FileSize(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return static_cast<std::size_t>(in.tellg());
}

// --- Format primitives ---

TEST_F(StorageTest, Crc32ChainsAcrossChunks) {
  const std::vector<unsigned char> bytes = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  const std::uint32_t whole = storage::Crc32(bytes);
  const std::uint32_t first =
      storage::Crc32({bytes.data(), 4});
  const std::uint32_t chained =
      storage::Crc32({bytes.data() + 4, bytes.size() - 4}, first);
  EXPECT_EQ(whole, chained);
  // Regression pin: CRC32 of "123456789" is the classic check value.
  const unsigned char check[] = {'1', '2', '3', '4', '5',
                                 '6', '7', '8', '9'};
  EXPECT_EQ(storage::Crc32({check, 9}), 0xCBF43926u);
}

TEST_F(StorageTest, SectionNamesRenderFourCcs) {
  EXPECT_EQ(storage::SectionName(storage::kSectionDataset), "DSET");
  EXPECT_EQ(storage::SectionName(storage::kSectionMeta), "META");
  // Unprintable ids fall back to hex.
  EXPECT_EQ(storage::SectionName(7)[0], '0');
}

// --- Matrix snapshot round-trips ---

TEST_F(StorageTest, MatrixRoundTripIsBitwiseExact) {
  const Matrix original = RandomMatrix(97, 13, 1);
  const std::string path = TempPath("roundtrip.ips");
  ASSERT_TRUE(storage::SaveMatrixSnapshot(original, path).ok());
  auto loaded = storage::LoadMatrixSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectBitwiseEqual(original, *loaded);
  EXPECT_FALSE(loaded->is_view());
}

TEST_F(StorageTest, MmapLoadMatchesHeapLoadAndIsAligned) {
  const Matrix original = RandomMatrix(64, 17, 2);
  const std::string path = TempPath("mmap.ips");
  ASSERT_TRUE(storage::SaveMatrixSnapshot(original, path).ok());
  auto mapped = storage::MapMatrixSnapshot(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(mapped->matrix.is_view());
  // The zero-copy doubles must be aligned for the SIMD kernels.
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(mapped->matrix.raw()) %
                storage::kSectionAlignment,
            0u);
  ExpectBitwiseEqual(original, mapped->matrix);
}

TEST_F(StorageTest, StreamingWriterAndBlockReaderRoundTrip) {
  const std::size_t cols = 5;
  const Matrix original = RandomMatrix(100, cols, 3);
  const std::string path = TempPath("streamed.ips");
  auto writer = storage::MatrixSnapshotWriter::Create(path, cols);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  // Append in ragged chunks to exercise the running CRC.
  std::size_t row = 0;
  for (std::size_t chunk : {7u, 31u, 1u, 50u, 11u}) {
    ASSERT_TRUE(
        writer->AppendRows({original.raw() + row * cols, chunk * cols})
            .ok());
    row += chunk;
  }
  ASSERT_EQ(row, 100u);
  EXPECT_EQ(writer->rows_written(), 100u);
  ASSERT_TRUE(writer->Finish().ok());

  auto reader = storage::MatrixBlockReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->rows(), 100u);
  EXPECT_EQ(reader->cols(), cols);
  Matrix block;
  ASSERT_TRUE(reader->ReadRows(13, 20, &block).ok());
  ASSERT_EQ(block.rows(), 20u);
  for (std::size_t i = 0; i < 20; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      ASSERT_EQ(block.At(i, j), original.At(13 + i, j));
    }
  }
  EXPECT_EQ(reader->ReadRows(90, 20, &block).code(),
            StatusCode::kOutOfRange);
  // Whole-file loaders understand the streamed layout too.
  auto loaded = storage::LoadMatrixSnapshot(path);
  ASSERT_TRUE(loaded.ok());
  ExpectBitwiseEqual(original, *loaded);
}

// --- Corruption ---

TEST_F(StorageTest, BitFlipInPayloadIsDataLossNamingTheSection) {
  const Matrix original = RandomMatrix(32, 8, 4);
  const std::string path = TempPath("bitflip.ips");
  ASSERT_TRUE(storage::SaveMatrixSnapshot(original, path).ok());
  // Header is 32 bytes, the DSET payload starts at the first aligned
  // offset (64) and its doubles after the 64-byte subheader.
  FlipByte(path, 150);
  auto loaded = storage::LoadMatrixSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("DSET"), std::string::npos)
      << loaded.status().ToString();
  // The mmap path refuses the same damage up front.
  auto mapped = storage::MapMatrixSnapshot(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kDataLoss);
}

TEST_F(StorageTest, TruncationIsRejected) {
  const Matrix original = RandomMatrix(32, 8, 5);
  const std::string path = TempPath("truncated.ips");
  ASSERT_TRUE(storage::SaveMatrixSnapshot(original, path).ok());
  Truncate(path, FileSize(path) - 10);
  auto loaded = storage::LoadMatrixSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST_F(StorageTest, BadMagicIsInvalidArgument) {
  const Matrix original = RandomMatrix(8, 4, 6);
  const std::string path = TempPath("badmagic.ips");
  ASSERT_TRUE(storage::SaveMatrixSnapshot(original, path).ok());
  FlipByte(path, 0);
  auto loaded = storage::LoadMatrixSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(StorageTest, MissingFileIsNotFound) {
  auto loaded = storage::LoadMatrixSnapshot(TempPath("nope.ips"));
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST_F(StorageTest, FailedSaveLeavesPreviousSnapshotIntact) {
  const Matrix v1 = RandomMatrix(16, 4, 7);
  const Matrix v2 = RandomMatrix(16, 4, 8);
  const std::string path = TempPath("atomic.ips");
  ASSERT_TRUE(storage::SaveMatrixSnapshot(v1, path).ok());
  {
    ScopedFailpoint fp("storage/rename");
    EXPECT_FALSE(storage::SaveMatrixSnapshot(v2, path).ok());
  }
  {
    ScopedFailpoint fp("storage/write");
    EXPECT_FALSE(storage::SaveMatrixSnapshot(v2, path).ok());
  }
  // Both failed publishes left v1 readable and unchanged.
  auto loaded = storage::LoadMatrixSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectBitwiseEqual(v1, *loaded);
  // And the writer is not poisoned: the next save goes through.
  ASSERT_TRUE(storage::SaveMatrixSnapshot(v2, path).ok());
  auto reloaded = storage::LoadMatrixSnapshot(path);
  ASSERT_TRUE(reloaded.ok());
  ExpectBitwiseEqual(v2, *reloaded);
}

// --- Engine snapshots ---

EngineOptions SmallEngineOptions() {
  EngineOptions options;
  options.lsh_params = {.k = 4, .l = 8};
  options.probe_queries = 4;
  options.probe_sample = 64;
  options.seed = 42;
  return options;
}

// Queries the engine on `algo` (forced) for a few data rows and
// returns (index, score) pairs.
std::vector<std::pair<std::size_t, double>> ForcedAnswers(
    const Engine& engine, QueryAlgo algo) {
  QueryOptions options;
  options.force_algorithm = algo;
  if (algo == QueryAlgo::kSketch) {
    options.is_signed = false;
    options.k = 1;
  }
  std::vector<std::pair<std::size_t, double>> answers;
  for (std::size_t row : {0u, 17u, 63u}) {
    auto result = engine.Query({engine.data().Row(row), options});
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) continue;
    for (const SearchMatch& match : result->matches) {
      answers.emplace_back(match.index, match.value);
    }
  }
  return answers;
}

TEST_F(StorageTest, EngineSnapshotRoundTripServesIdenticalAnswers) {
  auto cold = Engine::Create(RandomMatrix(128, 12, 9), SmallEngineOptions());
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  for (QueryAlgo algo : {QueryAlgo::kBruteForce, QueryAlgo::kBallTree,
                         QueryAlgo::kLsh, QueryAlgo::kSketch}) {
    ASSERT_TRUE((*cold)->EnsureIndex(algo).ok());
  }
  const std::string dir = TempPath("engine_snap");
  ASSERT_TRUE((*cold)->SaveSnapshot(dir).ok());

  for (const bool use_mmap : {false, true}) {
    SnapshotLoadOptions load;
    load.use_mmap = use_mmap;
    auto warm = Engine::CreateFromSnapshot(dir, load);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    EXPECT_EQ((*warm)->data().is_view(), use_mmap);
    ExpectBitwiseEqual((*cold)->data(), (*warm)->data());
    // The persisted calibration replaces the micro-probe warmup.
    const PlannerCalibration& a = (*cold)->planner().calibration();
    const PlannerCalibration& b = (*warm)->planner().calibration();
    EXPECT_EQ(a.tree_fraction, b.tree_fraction);
    EXPECT_EQ(a.lsh_candidate_fraction, b.lsh_candidate_fraction);
    EXPECT_EQ(a.lsh_recall, b.lsh_recall);
    EXPECT_EQ(a.sketch_recall, b.sketch_recall);
    EXPECT_EQ(a.probe_queries, b.probe_queries);
    // Every restored index answers bit-identically to the builder's.
    for (QueryAlgo algo : {QueryAlgo::kBruteForce, QueryAlgo::kBallTree,
                           QueryAlgo::kLsh, QueryAlgo::kSketch}) {
      EXPECT_EQ(ForcedAnswers(**cold, algo), ForcedAnswers(**warm, algo))
          << "algo " << QueryAlgoName(algo)
          << (use_mmap ? " (mmap)" : " (heap)");
    }
  }
}

TEST_F(StorageTest, EngineSnapshotWithoutIndexesRebuildsLazily) {
  auto cold = Engine::Create(RandomMatrix(96, 6, 10), SmallEngineOptions());
  ASSERT_TRUE(cold.ok());
  const std::string dir = TempPath("engine_lazy_snap");
  ASSERT_TRUE((*cold)->SaveSnapshot(dir).ok());
  auto warm = Engine::CreateFromSnapshot(dir);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  // No index sections were persisted; the first query builds lazily
  // and agrees with the engine that wrote the snapshot.
  QueryOptions options;
  options.force_algorithm = QueryAlgo::kBruteForce;
  auto expected = (*cold)->Query({(*cold)->data().Row(0), options});
  auto result = (*warm)->Query({(*warm)->data().Row(0), options});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(expected.ok());
  ASSERT_FALSE(result->matches.empty());
  EXPECT_EQ(result->matches[0].index, expected->matches[0].index);
  EXPECT_EQ(result->matches[0].value, expected->matches[0].value);
}

TEST_F(StorageTest, EngineSnapshotCorruptTreeSectionIsDataLoss) {
  auto cold = Engine::Create(RandomMatrix(64, 8, 11), SmallEngineOptions());
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE((*cold)->EnsureIndex(QueryAlgo::kBallTree).ok());
  const std::string dir = TempPath("engine_corrupt_snap");
  ASSERT_TRUE((*cold)->SaveSnapshot(dir).ok());
  const std::string path = dir + "/snapshot.ips";
  // Damage the TREE payload (CRC catches it at load).
  auto reader = storage::SnapshotReader::Open(path);
  ASSERT_TRUE(reader.ok());
  const storage::SectionEntry* tree = reader->Find(storage::kSectionTree);
  ASSERT_NE(tree, nullptr);
  FlipByte(path, static_cast<std::size_t>(tree->offset) + 9);
  auto warm = Engine::CreateFromSnapshot(dir);
  ASSERT_FALSE(warm.ok());
  EXPECT_EQ(warm.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(warm.status().message().find("TREE"), std::string::npos)
      << warm.status().ToString();
}

// Rewrites the snapshot at `path` with section `id` replaced by
// `payload` (same version); the rewritten file is CRC-valid throughout.
void ReplaceSection(const std::string& path, std::uint32_t id,
                    std::span<const unsigned char> payload) {
  auto reader = storage::SnapshotReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  std::vector<std::pair<storage::SectionEntry, std::vector<unsigned char>>>
      sections;
  for (const storage::SectionEntry& entry : reader->sections()) {
    auto bytes = reader->ReadSection(entry.id);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    sections.emplace_back(entry, *std::move(bytes));
  }
  auto writer = storage::SnapshotWriter::Create(path);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  for (const auto& [entry, bytes] : sections) {
    ASSERT_TRUE(writer
                    ->WriteSection(entry.id, entry.version,
                                   entry.id == id
                                       ? payload
                                       : std::span<const unsigned char>(bytes))
                    .ok());
  }
  ASSERT_TRUE(writer->Finish().ok());
}

// A CRC-valid TREE section whose counts would wrap a 64-bit size
// product (2^61 point-order entries x 8 bytes, 2^59 nodes x 96 bytes)
// must be rejected as kDataLoss before any allocation, not throw
// std::length_error out of the warm start.
TEST_F(StorageTest, EngineSnapshotWrappingTreeCountsAreDataLoss) {
  const std::size_t dim = 8;
  auto cold = Engine::Create(RandomMatrix(64, dim, 11), SmallEngineOptions());
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE((*cold)->EnsureIndex(QueryAlgo::kBallTree).ok());
  const std::string dir = TempPath("engine_wrapping_tree_snap");
  ASSERT_TRUE((*cold)->SaveSnapshot(dir).ok());
  const std::string path = dir + "/snapshot.ips";

  const std::uint64_t node_count = std::uint64_t{1} << 59;
  const std::uint64_t order_count = std::uint64_t{1} << 61;
  for (const auto& [num_nodes, order_size] :
       {std::pair{node_count, std::uint64_t{0}},
        std::pair{std::uint64_t{0}, order_count}}) {
    storage::PayloadWriter tree;
    tree.PutU64(dim);        // cols
    tree.PutI32(0);          // root
    tree.PutU64(num_nodes);  // 2^59 x (32 + 8 x 8) bytes wraps to 0
    if (num_nodes == 0) tree.PutU64(order_size);  // 2^61 x 8 wraps to 0
    ReplaceSection(path, storage::kSectionTree, tree.bytes());
    auto warm = Engine::CreateFromSnapshot(dir);
    ASSERT_FALSE(warm.ok());
    EXPECT_EQ(warm.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(warm.status().message().find("TREE"), std::string::npos)
        << warm.status().ToString();
  }
}

// A TREE section payload in the snapshot format (engine_snapshot.cc).
std::vector<unsigned char> TreePayload(
    std::size_t cols, const std::vector<MipsBallTree::Node>& nodes,
    const std::vector<std::size_t>& order, int root) {
  storage::PayloadWriter w;
  w.PutU64(cols);
  w.PutI32(root);
  w.PutU64(nodes.size());
  for (const MipsBallTree::Node& node : nodes) {
    w.PutU64(node.begin);
    w.PutU64(node.end);
    w.PutI32(node.left);
    w.PutI32(node.right);
    w.PutDouble(node.radius);
    w.PutDoubles(node.center);
  }
  w.PutU64(order.size());
  for (std::size_t p : order) w.PutU64(p);
  return std::vector<unsigned char>(w.bytes().begin(), w.bytes().end());
}

// A CRC-valid TREE section whose child ranges leave a gap in their
// parent's range would let search skip rows; the load must refuse it.
TEST_F(StorageTest, EngineSnapshotTreeChildRangeGapIsDataLoss) {
  auto cold = Engine::Create(RandomMatrix(64, 8, 12), SmallEngineOptions());
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE((*cold)->EnsureIndex(QueryAlgo::kBallTree).ok());
  const std::string dir = TempPath("engine_tree_gap_snap");
  ASSERT_TRUE((*cold)->SaveSnapshot(dir).ok());
  Rng rng(5);
  const MipsBallTree tree((*cold)->data(), 4, &rng);
  std::vector<MipsBallTree::Node> nodes = tree.nodes();
  nodes[nodes[tree.root()].left].end -= 1;
  ReplaceSection(dir + "/snapshot.ips", storage::kSectionTree,
                 TreePayload(8, nodes, tree.point_order(), tree.root()));
  auto warm = Engine::CreateFromSnapshot(dir);
  ASSERT_FALSE(warm.ok());
  EXPECT_EQ(warm.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(warm.status().message().find("do not tile"), std::string::npos)
      << warm.status().ToString();
}

// Snapshots written before the median split hold unbalanced trees; a
// load restores such a tree verbatim and still answers exactly. The
// most unbalanced shape -- every split peels one point off -- stands in
// for them.
TEST_F(StorageTest, EngineSnapshotWithUnbalancedTreeAnswersExactly) {
  const std::size_t n = 64;
  const std::size_t dim = 8;
  auto cold = Engine::Create(RandomMatrix(n, dim, 13), SmallEngineOptions());
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE((*cold)->EnsureIndex(QueryAlgo::kBallTree).ok());
  const std::string dir = TempPath("engine_unbalanced_tree_snap");
  ASSERT_TRUE((*cold)->SaveSnapshot(dir).ok());
  const Matrix& data = (*cold)->data();

  std::vector<std::size_t> order(n);
  for (std::size_t t = 0; t < n; ++t) order[t] = n - 1 - t;
  std::vector<MipsBallTree::Node> nodes;
  const auto add_node = [&](std::size_t begin, std::size_t end) {
    MipsBallTree::Node node;
    node.begin = begin;
    node.end = end;
    node.center.assign(dim, 0.0);
    for (std::size_t t = begin; t < end; ++t) {
      for (std::size_t c = 0; c < dim; ++c) {
        node.center[c] += data.At(order[t], c);
      }
    }
    for (double& c : node.center) c /= static_cast<double>(end - begin);
    for (std::size_t t = begin; t < end; ++t) {
      node.radius = std::max(node.radius,
                             std::sqrt(kernels::SquaredDistance(
                                 data.Row(order[t]), node.center)));
    }
    nodes.push_back(std::move(node));
    return static_cast<int>(nodes.size() - 1);
  };
  // Preorder chain: [t, n) splits into the leaf [t, t+1) and [t+1, n).
  for (std::size_t t = 0; t + 1 < n; ++t) {
    const int parent = add_node(t, n);
    nodes[parent].left = add_node(t, t + 1);
    nodes[parent].right = parent + 2;
  }
  add_node(n - 1, n);
  ASSERT_TRUE(MipsBallTree::Restore(data, nodes, order, 0).ok());
  ReplaceSection(dir + "/snapshot.ips", storage::kSectionTree,
                 TreePayload(dim, nodes, order, 0));

  auto warm = Engine::CreateFromSnapshot(dir);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  QueryOptions options;
  options.force_algorithm = QueryAlgo::kBallTree;
  options.k = 5;
  Rng rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> q(dim);
    for (double& v : q) v = rng.NextGaussian();
    auto result = (*warm)->Query({q, options});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const std::vector<SearchMatch> want =
        TopKBruteForce(data, q, options.k, /*is_signed=*/true);
    ASSERT_EQ(result->matches.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(result->matches[i].index, want[i].index);
      EXPECT_EQ(result->matches[i].value, want[i].value);
    }
  }
}

TEST_F(StorageTest, MissingSnapshotDirectoryIsNotFound) {
  auto warm = Engine::CreateFromSnapshot(TempPath("no_such_dir"));
  EXPECT_EQ(warm.status().code(), StatusCode::kNotFound);
}

// --- ShardedEngine snapshots ---

TEST_F(StorageTest, ShardedSnapshotRoundTripServesIdenticalAnswers) {
  ShardedEngineOptions options;
  options.num_shards = 3;
  options.engine = SmallEngineOptions();
  auto cold = ShardedEngine::Create(RandomMatrix(120, 8, 12), options);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_TRUE((*cold)->EnsureIndex(QueryAlgo::kBallTree).ok());
  const std::string dir = TempPath("sharded_snap");
  ASSERT_TRUE((*cold)->SaveSnapshot(dir).ok());

  // Reload with a different serving policy: the partition comes from
  // the snapshot, the policy from the caller.
  ShardedEngineOptions policy;
  policy.num_shards = 999;  // ignored: the manifest dictates 3
  policy.hedge.enabled = false;
  auto warm = ShardedEngine::CreateFromSnapshot(dir, policy);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ((*warm)->num_shards(), 3u);
  EXPECT_FALSE((*warm)->options().hedge.enabled);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ((*warm)->shard_offset(i), (*cold)->shard_offset(i));
  }
  QueryOptions query_options;
  query_options.k = 3;
  query_options.force_algorithm = QueryAlgo::kBallTree;
  for (std::size_t row : {0u, 59u, 119u}) {
    const auto q = (*cold)->shard(0).data().Row(0);
    (void)row;
    auto a = (*cold)->Query({q, query_options});
    auto b = (*warm)->Query({q, query_options});
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->matches.size(), b->matches.size());
    for (std::size_t m = 0; m < a->matches.size(); ++m) {
      EXPECT_EQ(a->matches[m].index, b->matches[m].index);
      EXPECT_EQ(a->matches[m].value, b->matches[m].value);
    }
  }
}

// --- Out-of-core blocked join ---

TEST_F(StorageTest, BlockedJoinEqualsMonolithicJoin) {
  const std::size_t dim = 16;
  const Matrix data = RandomMatrix(512, dim, 13);
  const Matrix queries = RandomMatrix(256, dim, 14);
  const std::string data_path = TempPath("join_data.ips");
  const std::string queries_path = TempPath("join_queries.ips");
  ASSERT_TRUE(storage::SaveMatrixSnapshot(data, data_path).ok());
  ASSERT_TRUE(storage::SaveMatrixSnapshot(queries, queries_path).ok());

  const SimHashFamily family(dim);
  storage::BlockedJoinOptions options;
  options.params = {.k = 3, .l = 6};
  options.s_threshold = 2.0;
  options.cs_threshold = 0.5;
  options.is_signed = true;
  options.seed = 99;
  options.block_rows = 128;  // 4 data blocks x 2 query blocks

  storage::BlockedJoinStats stats;
  auto blocked = storage::BlockedBucketJoin(family, data_path,
                                            queries_path, options, &stats);
  ASSERT_TRUE(blocked.ok()) << blocked.status().ToString();
  EXPECT_EQ(stats.data_blocks, 4u);
  EXPECT_EQ(stats.query_blocks, 2u);
  EXPECT_EQ(stats.block_pairs, 8u);
  EXPECT_GT(stats.bytes_read, 0u);

  Rng rng(options.seed);
  const BucketJoinResult monolithic = LshBucketJoin(
      family, data, data, queries, queries, options.s_threshold,
      options.cs_threshold, options.is_signed, options.params, &rng);

  ASSERT_EQ(blocked->per_query.size(), monolithic.per_query.size());
  std::size_t matched = 0;
  for (std::size_t q = 0; q < monolithic.per_query.size(); ++q) {
    const auto& expected = monolithic.per_query[q];
    const auto& got = blocked->per_query[q];
    ASSERT_EQ(got.has_value(), expected.has_value()) << "query " << q;
    if (expected.has_value()) {
      EXPECT_EQ(got->first, expected->first) << "query " << q;
      EXPECT_EQ(got->second, expected->second) << "query " << q;
      ++matched;
    }
  }
  // The thresholds were chosen so the join actually joins something.
  EXPECT_GT(matched, 0u);
}

// The four lsh.join.* counters of a blocked join sum to the monolithic
// run's, and satisfy candidate == verified + duplicate + prefiltered:
// with explicit 128-row blocks, with an explicit 100-row size and with a
// derived size (both rounded down to whole 32-row quantization blocks).
TEST_F(StorageTest, BlockedJoinCountersEqualMonolithicCounters) {
  const std::size_t dim = 16;
  const Matrix data = RandomMatrix(512, dim, 13);
  const Matrix queries = RandomMatrix(256, dim, 14);
  const std::string data_path = TempPath("join_counter_data.ips");
  const std::string queries_path = TempPath("join_counter_queries.ips");
  ASSERT_TRUE(storage::SaveMatrixSnapshot(data, data_path).ok());
  ASSERT_TRUE(storage::SaveMatrixSnapshot(queries, queries_path).ok());

  const SimHashFamily family(dim);
  storage::BlockedJoinOptions options;
  options.params = {.k = 3, .l = 6};
  options.s_threshold = 2.0;
  options.cs_threshold = 0.5;
  options.seed = 99;
  Rng rng(options.seed);
  const BucketJoinResult monolithic = LshBucketJoin(
      family, data, data, queries, queries, options.s_threshold,
      options.cs_threshold, options.is_signed, options.params, &rng);

  // 100 rows' worth of working set derives 96-row blocks.
  const std::size_t derived_budget =
      100 * BucketJoiner::WorkingSetBytesPerRow(dim, options.params.l);
  struct Case {
    std::size_t block_rows;
    std::size_t budget;
    std::size_t resolved;
  };
  for (const Case& c : {Case{128, options.memory_budget_bytes, 128},
                        Case{100, options.memory_budget_bytes, 96},
                        Case{0, derived_budget, 96}}) {
    options.block_rows = c.block_rows;
    options.memory_budget_bytes = c.budget;
    storage::BlockedJoinStats stats;
    auto blocked = storage::BlockedBucketJoin(family, data_path,
                                              queries_path, options, &stats);
    ASSERT_TRUE(blocked.ok()) << blocked.status().ToString();
    EXPECT_GT(stats.data_blocks, 1u);
    EXPECT_EQ(stats.block_rows, c.resolved);
    EXPECT_EQ(blocked->per_query, monolithic.per_query);
    const MetricSet& m = blocked->metrics;
    for (const char* name :
         {"lsh.join.candidate_pairs", "lsh.join.verified_pairs",
          "lsh.join.duplicate_pairs", "lsh.join.pairs_prefiltered"}) {
      EXPECT_EQ(m.Get(name), monolithic.metrics.Get(name))
          << name << " with block_rows " << stats.block_rows;
    }
    EXPECT_GT(m.Get("lsh.join.pairs_prefiltered"), 0u);
    EXPECT_EQ(m.Get("lsh.join.candidate_pairs"),
              m.Get("lsh.join.verified_pairs") +
                  m.Get("lsh.join.duplicate_pairs") +
                  m.Get("lsh.join.pairs_prefiltered"));
  }
}

// With many more tables than columns the bucket tables, not the rows,
// dominate the working set: the derived block must still fit the budget.
// Its working set is at least both rows plus a key and a row index per
// data entry and a key per query entry, whatever the layout.
TEST_F(StorageTest, BlockedJoinBlocksFitBudgetWithManyTables) {
  const std::size_t dim = 4;
  const Matrix data = RandomMatrix(4096, dim, 18);
  const Matrix queries = RandomMatrix(256, dim, 19);
  const std::string data_path = TempPath("many_tables_data.ips");
  const std::string queries_path = TempPath("many_tables_queries.ips");
  ASSERT_TRUE(storage::SaveMatrixSnapshot(data, data_path).ok());
  ASSERT_TRUE(storage::SaveMatrixSnapshot(queries, queries_path).ok());

  const SimHashFamily family(dim);
  storage::BlockedJoinOptions options;
  options.memory_budget_bytes = 1u << 20;
  options.params = {.k = 8, .l = 64};
  options.s_threshold = 2.0;
  options.cs_threshold = 0.5;
  options.seed = 21;
  storage::BlockedJoinStats stats;
  auto blocked = storage::BlockedBucketJoin(family, data_path, queries_path,
                                            options, &stats);
  ASSERT_TRUE(blocked.ok()) << blocked.status().ToString();

  const std::size_t min_bytes_per_row =
      2 * dim * sizeof(double) +
      options.params.l * (2 * sizeof(std::uint64_t) + sizeof(std::uint32_t));
  EXPECT_LE(stats.block_rows * min_bytes_per_row,
            options.memory_budget_bytes)
      << "block of " << stats.block_rows << " rows";
  EXPECT_EQ(stats.block_rows % QuantizedMatrix::kRowsPerBlock, 0u);
  EXPECT_GT(stats.data_blocks, 1u);

  Rng rng(options.seed);
  const BucketJoinResult monolithic = LshBucketJoin(
      family, data, data, queries, queries, options.s_threshold,
      options.cs_threshold, options.is_signed, options.params, &rng);
  EXPECT_EQ(blocked->per_query, monolithic.per_query);
}

TEST_F(StorageTest, BlockedJoinValidatesInputs) {
  const SimHashFamily family(4);
  storage::BlockedJoinOptions options;
  options.memory_budget_bytes = 0;
  auto result = storage::BlockedBucketJoin(
      family, TempPath("a.ips"), TempPath("b.ips"), options);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(StorageTest, BlockedJoinStaysWithinMemoryBudget) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "RSS accounting is not meaningful under sanitizers";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  GTEST_SKIP() << "RSS accounting is not meaningful under sanitizers";
#endif
#endif
  // A 64 MiB on-disk dataset joined under a 16 MiB budget: the join
  // must complete and the process peak RSS must grow by no more than
  // the budget plus a fixed slack — proof the dataset never became
  // resident at once.
  const std::size_t dim = 64;
  const std::size_t rows = 131072;  // x 64 cols x 8 B = 64 MiB
  const std::size_t budget = 16u << 20;
  const std::string data_path = TempPath("oocore_data.ips");
  {
    auto writer = storage::MatrixSnapshotWriter::Create(data_path, dim);
    ASSERT_TRUE(writer.ok());
    Rng rng(15);
    std::vector<double> chunk(4096 * dim);
    for (std::size_t written = 0; written < rows; written += 4096) {
      for (double& v : chunk) v = rng.NextGaussian();
      ASSERT_TRUE(writer->AppendRows(chunk).ok());
    }
    ASSERT_TRUE(writer->Finish().ok());
  }
  const std::string queries_path = TempPath("oocore_queries.ips");
  ASSERT_TRUE(
      storage::SaveMatrixSnapshot(RandomMatrix(256, dim, 16), queries_path)
          .ok());

  const SimHashFamily family(dim);
  storage::BlockedJoinOptions options;
  options.memory_budget_bytes = budget;
  options.params = {.k = 10, .l = 4};
  options.s_threshold = 64.0;
  options.cs_threshold = 48.0;
  options.seed = 17;

  const std::size_t rss_before = storage::PeakRssBytes();
  storage::BlockedJoinStats stats;
  auto result = storage::BlockedBucketJoin(family, data_path, queries_path,
                                           options, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::size_t rss_after = storage::PeakRssBytes();

  EXPECT_EQ(stats.data_rows, rows);
  EXPECT_EQ(result->per_query.size(), 256u);
  ASSERT_GT(rows * dim * sizeof(double), 3 * budget)
      << "dataset must exceed the budget for this test to mean anything";
  // Slack covers the allocator, the result vector, and the per-pair
  // hash tables; it is far below the 64 MiB the dataset would cost
  // resident.
  const std::size_t slack = 16u << 20;
  EXPECT_LE(rss_after - rss_before, budget + slack)
      << "peak RSS grew by " << (rss_after - rss_before) / (1 << 20)
      << " MiB during a " << budget / (1 << 20) << " MiB-budget join";
}

}  // namespace
}  // namespace ips
