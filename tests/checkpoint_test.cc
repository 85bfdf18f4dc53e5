// Tests for model checkpointing: round trips, mismatch detection, and a
// trained-model save/restore through the public forecasting API.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/baselines/gnn_models.h"
#include "src/data/dataset.h"
#include "src/graph/shard.h"
#include "src/models/dyhsl.h"
#include "src/nn/layers.h"
#include "src/train/checkpoint.h"
#include "src/train/trainer.h"
#include "tests/testing_utils.h"

namespace dyhsl::train {
namespace {

namespace T = ::dyhsl::tensor;

using ::dyhsl::testing::TempPath;

TEST(CheckpointTest, LinearRoundTrip) {
  Rng rng(3);
  nn::Linear source(4, 3, &rng);
  nn::Linear target(4, 3, &rng);  // different random init
  std::string path = TempPath("linear.ckpt");
  ASSERT_TRUE(SaveCheckpoint(source, path).ok());
  ASSERT_TRUE(LoadCheckpoint(&target, path).ok());
  auto a = source.NamedParameters();
  auto b = target.NamedParameters();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TENSOR_EQ(a[i].second.value(), b[i].second.value());
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, RejectsShapeMismatch) {
  Rng rng(4);
  nn::Linear source(4, 3, &rng);
  nn::Linear wrong(5, 3, &rng);
  std::string path = TempPath("mismatch.ckpt");
  ASSERT_TRUE(SaveCheckpoint(source, path).ok());
  Status status = LoadCheckpoint(&wrong, path);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(CheckpointTest, RejectsParameterCountMismatch) {
  Rng rng(5);
  nn::Linear source(4, 3, &rng, /*bias=*/true);
  nn::Linear no_bias(4, 3, &rng, /*bias=*/false);
  std::string path = TempPath("count.ckpt");
  ASSERT_TRUE(SaveCheckpoint(source, path).ok());
  EXPECT_FALSE(LoadCheckpoint(&no_bias, path).ok());
  std::remove(path.c_str());
}

TEST(CheckpointTest, RejectsGarbageFile) {
  std::string path = TempPath("garbage.ckpt");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("this is not a checkpoint", f);
    std::fclose(f);
  }
  Rng rng(6);
  nn::Linear module(2, 2, &rng);
  Status status = LoadCheckpoint(&module, path);
  EXPECT_FALSE(status.ok());
  std::remove(path.c_str());
}

TEST(CheckpointTest, MissingFileIsIoError) {
  Rng rng(7);
  nn::Linear module(2, 2, &rng);
  Status status = LoadCheckpoint(&module, "/nonexistent/x.ckpt");
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

namespace {

template <typename P>
void AppendPod(std::string* out, const P& value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(P));
}

// Serializes `module` in the legacy DYH1 layout (no version byte).
std::string SerializeV1(const nn::Module& module) {
  std::string raw("DYH1", 4);
  auto named = module.NamedParameters();
  AppendPod<uint64_t>(&raw, named.size());
  for (const auto& [name, param] : named) {
    AppendPod<uint32_t>(&raw, static_cast<uint32_t>(name.size()));
    raw.append(name);
    const T::Tensor& value = param.value();
    AppendPod<uint32_t>(&raw, static_cast<uint32_t>(value.dim()));
    for (int64_t d = 0; d < value.dim(); ++d) {
      AppendPod<int64_t>(&raw, value.size(d));
    }
    raw.append(reinterpret_cast<const char*>(value.data()),
               value.numel() * sizeof(float));
  }
  return raw;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

std::string ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::string bytes;
  if (f == nullptr) return bytes;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.append(buf, got);
  }
  std::fclose(f);
  return bytes;
}

std::vector<float> FlattenParams(const nn::Module& module) {
  std::vector<float> all;
  for (const auto& [name, param] : module.NamedParameters()) {
    const float* p = param.value().data();
    all.insert(all.end(), p, p + param.value().numel());
  }
  return all;
}

}  // namespace

TEST(CheckpointTest, WritesV2HeaderWithVersionByte) {
  Rng rng(8);
  nn::Linear module(2, 2, &rng);
  std::string path = TempPath("v2header.ckpt");
  ASSERT_TRUE(SaveCheckpoint(module, path).ok());
  std::string bytes = ReadFile(path);
  ASSERT_GE(bytes.size(), 5u);
  EXPECT_EQ(bytes.substr(0, 4), "DYH2");
  EXPECT_EQ(static_cast<uint8_t>(bytes[4]), 2);
  std::remove(path.c_str());
}

TEST(CheckpointTest, LegacyV1FilesStillLoad) {
  Rng rng(9);
  nn::Linear source(3, 2, &rng);
  nn::Linear target(3, 2, &rng);  // different init
  std::string path = TempPath("legacy.ckpt");
  WriteFile(path, SerializeV1(source));
  ASSERT_TRUE(LoadCheckpoint(&target, path).ok());
  auto a = source.NamedParameters();
  auto b = target.NamedParameters();
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TENSOR_EQ(a[i].second.value(), b[i].second.value());
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, ShardMetadataRoundTripsThroughV3) {
  Rng rng(21);
  nn::Linear source(4, 3, &rng);
  nn::Linear target(4, 3, &rng);
  ShardMeta meta;
  meta.shard_id = 1;
  meta.num_shards = 4;
  meta.global_begin = 256;
  meta.global_end = 512;
  meta.halo_count = 3;
  meta.total_nodes = 1024;
  std::string path = TempPath("shardmeta.ckpt");
  ASSERT_TRUE(SaveCheckpoint(source, path, meta).ok());

  // The sharded format announces itself as version 3.
  std::string bytes = ReadFile(path);
  ASSERT_GE(bytes.size(), 5u);
  EXPECT_EQ(bytes.substr(0, 4), "DYH2");
  EXPECT_EQ(static_cast<uint8_t>(bytes[4]), 3);

  // Metadata-only read (header bytes, no payload).
  ShardMeta peeked;
  ASSERT_TRUE(ReadCheckpointShardMeta(path, &peeked).ok());
  EXPECT_EQ(peeked.shard_id, 1);
  EXPECT_EQ(peeked.num_shards, 4);
  EXPECT_EQ(peeked.global_begin, 256);
  EXPECT_EQ(peeked.global_end, 512);
  EXPECT_EQ(peeked.halo_count, 3);
  EXPECT_EQ(peeked.total_nodes, 1024);

  // Full load restores parameters and surfaces the same metadata.
  ShardMeta loaded;
  ASSERT_TRUE(LoadCheckpoint(&target, path, &loaded).ok());
  EXPECT_TRUE(loaded.sharded());
  EXPECT_EQ(loaded.global_begin, 256);
  auto a = source.NamedParameters();
  auto b = target.NamedParameters();
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TENSOR_EQ(a[i].second.value(), b[i].second.value());
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, UnshardedSavesStayVersion2AndYieldUnshardedMeta) {
  Rng rng(22);
  nn::Linear source(2, 2, &rng);
  nn::Linear target(2, 2, &rng);
  std::string path = TempPath("nometa.ckpt");
  ASSERT_TRUE(SaveCheckpoint(source, path).ok());
  std::string bytes = ReadFile(path);
  EXPECT_EQ(static_cast<uint8_t>(bytes[4]), 2);  // byte-compatible format
  ShardMeta meta;
  meta.shard_id = 7;  // stale contents must be overwritten
  ASSERT_TRUE(LoadCheckpoint(&target, path, &meta).ok());
  EXPECT_FALSE(meta.sharded());
  std::remove(path.c_str());
}

TEST(CheckpointTest, LegacyV1FilesYieldUnshardedMeta) {
  Rng rng(23);
  nn::Linear source(3, 2, &rng);
  nn::Linear target(3, 2, &rng);
  std::string path = TempPath("legacymeta.ckpt");
  WriteFile(path, SerializeV1(source));
  ShardMeta meta;
  meta.shard_id = 2;
  ASSERT_TRUE(LoadCheckpoint(&target, path, &meta).ok());
  EXPECT_FALSE(meta.sharded());
  ShardMeta peeked;
  ASSERT_TRUE(ReadCheckpointShardMeta(path, &peeked).ok());
  EXPECT_FALSE(peeked.sharded());
  std::remove(path.c_str());
}

TEST(CheckpointTest, RejectsCorruptShardMetadata) {
  Rng rng(24);
  nn::Linear source(2, 2, &rng);
  nn::Linear target(2, 2, &rng);
  ShardMeta meta;
  meta.shard_id = 0;
  meta.num_shards = 2;
  meta.global_begin = 0;
  meta.global_end = 4;
  meta.halo_count = 1;
  meta.total_nodes = 8;
  std::string path = TempPath("badmeta.ckpt");
  ASSERT_TRUE(SaveCheckpoint(source, path, meta).ok());
  std::string bytes = ReadFile(path);
  // Corrupt the shard block: global_end (fourth int64, after magic +
  // version + shard_id + num_shards + global_begin) becomes negative.
  int64_t bad = -5;
  std::memcpy(bytes.data() + 4 + 1 + 3 * sizeof(int64_t), &bad,
              sizeof(bad));
  WriteFile(path, bytes);
  Status status = LoadCheckpoint(&target, path);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  ShardMeta peeked;
  EXPECT_FALSE(ReadCheckpointShardMeta(path, &peeked).ok());
  std::remove(path.c_str());
}

TEST(CheckpointTest, RejectsOverflowingShardMetadata) {
  // Hostile header: halo_count and total_nodes near INT64_MAX must be
  // rejected by the magnitude caps, not wrap the owned+halo sum.
  Rng rng(26);
  nn::Linear source(2, 2, &rng);
  nn::Linear target(2, 2, &rng);
  ShardMeta meta;
  meta.shard_id = 0;
  meta.num_shards = 2;
  meta.global_begin = 0;
  meta.global_end = 4;
  meta.halo_count = 1;
  meta.total_nodes = 8;
  std::string path = TempPath("overflowmeta.ckpt");
  ASSERT_TRUE(SaveCheckpoint(source, path, meta).ok());
  std::string bytes = ReadFile(path);
  int64_t huge = std::numeric_limits<int64_t>::max();
  // halo_count is the fifth int64, total_nodes the sixth.
  std::memcpy(bytes.data() + 4 + 1 + 4 * sizeof(int64_t), &huge,
              sizeof(huge));
  std::memcpy(bytes.data() + 4 + 1 + 5 * sizeof(int64_t), &huge,
              sizeof(huge));
  WriteFile(path, bytes);
  Status status = LoadCheckpoint(&target, path);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(CheckpointTest, SaveRejectsInconsistentShardMeta) {
  Rng rng(25);
  nn::Linear source(2, 2, &rng);
  ShardMeta meta;
  meta.shard_id = 3;
  meta.num_shards = 2;  // shard_id out of range
  meta.global_begin = 0;
  meta.global_end = 4;
  meta.total_nodes = 8;
  std::string path = TempPath("inconsistent.ckpt");
  Status status = SaveCheckpoint(source, path, meta);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointTest, RejectsUnsupportedVersion) {
  Rng rng(10);
  nn::Linear source(2, 2, &rng);
  std::string path = TempPath("v9.ckpt");
  ASSERT_TRUE(SaveCheckpoint(source, path).ok());
  std::string bytes = ReadFile(path);
  bytes[4] = 9;  // future format version
  WriteFile(path, bytes);
  Status status = LoadCheckpoint(&source, path);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(CheckpointTest, TruncationAtEveryPrefixFailsWithoutMutation) {
  Rng rng(11);
  nn::Linear source(3, 3, &rng);
  nn::Linear target(3, 3, &rng);
  std::string path = TempPath("trunc.ckpt");
  ASSERT_TRUE(SaveCheckpoint(source, path).ok());
  std::string bytes = ReadFile(path);
  std::vector<float> before = FlattenParams(target);
  // A handful of prefixes cutting through the header, a name, a shape and
  // the float payload.
  for (size_t len : {size_t{0}, size_t{3}, size_t{4}, size_t{5}, size_t{12},
                     size_t{20}, size_t{40}, bytes.size() - 7,
                     bytes.size() - 1}) {
    WriteFile(path, bytes.substr(0, len));
    Status status = LoadCheckpoint(&target, path);
    EXPECT_FALSE(status.ok()) << "prefix length " << len;
    // Transactional: a failed load must leave the module untouched.
    EXPECT_EQ(FlattenParams(target), before) << "prefix length " << len;
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, RejectsCorruptNameLengthAndRank) {
  Rng rng(12);
  nn::Linear source(2, 2, &rng);
  std::string path = TempPath("corrupt.ckpt");
  ASSERT_TRUE(SaveCheckpoint(source, path).ok());
  std::string bytes = ReadFile(path);
  // Record starts after magic(4) + version(1) + count(8) = offset 13.
  {
    std::string hacked = bytes;
    uint32_t huge = 1u << 30;
    std::memcpy(hacked.data() + 13, &huge, sizeof(huge));
    WriteFile(path, hacked);
    EXPECT_EQ(LoadCheckpoint(&source, path).code(),
              StatusCode::kInvalidArgument);
  }
  {
    // Corrupt the rank field of the first record (offset 13 + 4 + name).
    auto named = source.NamedParameters();
    size_t rank_off = 13 + 4 + named[0].first.size();
    std::string hacked = bytes;
    uint32_t bad_rank = 99;
    std::memcpy(hacked.data() + rank_off, &bad_rank, sizeof(bad_rank));
    WriteFile(path, hacked);
    EXPECT_EQ(LoadCheckpoint(&source, path).code(),
              StatusCode::kInvalidArgument);
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, RejectsTrailingBytes) {
  Rng rng(13);
  nn::Linear source(2, 2, &rng);
  std::string path = TempPath("trailing.ckpt");
  ASSERT_TRUE(SaveCheckpoint(source, path).ok());
  std::string bytes = ReadFile(path) + "junk";
  WriteFile(path, bytes);
  EXPECT_EQ(LoadCheckpoint(&source, path).code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

namespace {

// Bytes rather than floats: a flip that loads can write a NaN, which must
// still compare equal to itself on the next round.
std::vector<char> ParamBytes(const nn::Module& module) {
  std::vector<char> all;
  for (const auto& [name, param] : module.NamedParameters()) {
    const char* p = reinterpret_cast<const char*>(param.value().data());
    all.insert(all.end(), p, p + param.value().numel() * sizeof(float));
  }
  return all;
}

// Bytes between the version byte and the parameter count: none in a
// plain (version 2) checkpoint, the six int64 ShardMeta fields in a
// sharded (version 3) one.
size_t ShardBlockBytes(const ShardMeta& meta) {
  return meta.sharded() ? 6 * sizeof(int64_t) : 0;
}

// {offset, width} of every length field in a checkpoint of `module` written
// with `meta`: the parameter count, then per record its name length, its
// rank and each dim.
std::vector<std::pair<size_t, size_t>> LengthFields(const nn::Module& module,
                                                    const ShardMeta& meta) {
  const size_t count_off = 5 + ShardBlockBytes(meta);  // magic(4) + version(1)
  std::vector<std::pair<size_t, size_t>> fields = {
      {count_off, sizeof(uint64_t)}};
  size_t off = count_off + sizeof(uint64_t);
  for (const auto& [name, param] : module.NamedParameters()) {
    fields.emplace_back(off, sizeof(uint32_t));
    off += sizeof(uint32_t) + name.size();
    fields.emplace_back(off, sizeof(uint32_t));
    off += sizeof(uint32_t);
    for (int64_t d = 0; d < param.value().dim(); ++d) {
      fields.emplace_back(off, sizeof(int64_t));
      off += sizeof(int64_t);
    }
    off += param.value().numel() * sizeof(float);
  }
  return fields;
}

// Writes `bytes` to `path` and loads it into `module`: the load either
// succeeds or fails with every parameter byte-identical to before.
// Returns whether it loaded.
bool LoadsOrLeavesModuleUntouched(nn::Module* module, const std::string& path,
                                  const std::string& bytes,
                                  const std::string& what) {
  WriteFile(path, bytes);
  const std::vector<char> before = ParamBytes(*module);
  ShardMeta meta;
  Status status = LoadCheckpoint(module, path, &meta);
  if (!status.ok()) {
    EXPECT_EQ(ParamBytes(*module), before) << what << ": " << status.ToString();
  }
  return status.ok();
}

}  // namespace

TEST(CheckpointTest, SeededMutationsLoadOrFailWithoutMutation) {
  // Seeded single-bit flips anywhere in the file, and every length field
  // inflated, over a DyHSL and a DCRNN checkpoint and a version-3 STGCN
  // shard checkpoint as the sharded router loads it. A flip may land in a
  // float and load; anything the loader rejects must leave the module as
  // it was. An inflated length never describes the module, so it must be
  // rejected. An inflated ShardMeta field may still describe a consistent
  // shard, so it must load or be rejected untouched.
  data::TrafficDataset dataset = data::TrafficDataset::Generate(
      data::DatasetSpec::Pems08Like(0.1, 2, 9));
  ForecastTask task = ForecastTask::FromDataset(dataset);
  models::DyHslConfig cfg;
  cfg.hidden_dim = 8;
  cfg.prior_layers = 1;
  cfg.mhce_layers = 1;
  cfg.num_hyperedges = 4;
  cfg.window_sizes = {1, 12};
  models::DyHsl dyhsl_source(task, cfg);
  cfg.seed += 1;
  models::DyHsl dyhsl_target(task, cfg);
  baselines::Dcrnn dcrnn_source(task, 8, 2, 1);
  baselines::Dcrnn dcrnn_target(task, 8, 2, 2);
  baselines::Stgcn stgcn_source(task, 8, 1);
  baselines::Stgcn stgcn_target(task, 8, 2);
  const graph::ShardPlan plan = graph::ShardPlan::Build(task.spatial_adj, 2, 2);
  struct Case {
    const char* name;
    const nn::Module* source;
    nn::Module* target;
    ShardMeta meta;
  };
  const Case cases[] = {
      {"DyHSL", &dyhsl_source, &dyhsl_target, ShardMeta()},
      {"DCRNN", &dcrnn_source, &dcrnn_target, ShardMeta()},
      {"STGCN shard 1", &stgcn_source, &stgcn_target,
       ShardMeta::FromPlan(plan, 1)}};
  const std::string path = TempPath("mutated.ckpt");
  Rng rng(2023);
  for (const Case& c : cases) {
    ASSERT_TRUE(SaveCheckpoint(*c.source, path, c.meta).ok()) << c.name;
    const std::string bytes = ReadFile(path);
    ASSERT_EQ(static_cast<uint8_t>(bytes[4]), c.meta.sharded() ? 3 : 2)
        << c.name;
    int loaded = 0;
    int rejected = 0;
    for (int i = 0; i < 256; ++i) {
      const uint64_t bit = rng.NextUint64() % (bytes.size() * 8);
      std::string hacked = bytes;
      hacked[bit / 8] = static_cast<char>(hacked[bit / 8] ^ (1 << (bit % 8)));
      const bool ok = LoadsOrLeavesModuleUntouched(
          c.target, path, hacked,
          std::string(c.name) + " flip of bit " + std::to_string(bit));
      ++(ok ? loaded : rejected);
    }
    // Both outcomes are exercised: payload flips load, header flips do not.
    EXPECT_GT(loaded, 0) << c.name;
    EXPECT_GT(rejected, 0) << c.name;

    // Consistent inflations (say total_nodes + 1) load; the rest do not.
    int meta_loaded = 0;
    int meta_rejected = 0;
    for (size_t field = 0; field < ShardBlockBytes(c.meta) / 8; ++field) {
      const size_t off = 5 + field * sizeof(int64_t);
      int64_t value = 0;
      std::memcpy(&value, bytes.data() + off, sizeof(value));
      const int64_t inflated_values[] = {
          value + 1, value + 4096, value + (int64_t{1} << 30),
          std::numeric_limits<int64_t>::max()};
      for (int64_t inflated : inflated_values) {
        std::string hacked = bytes;
        std::memcpy(hacked.data() + off, &inflated, sizeof(inflated));
        const bool ok = LoadsOrLeavesModuleUntouched(
            c.target, path, hacked,
            std::string(c.name) + " shard field " + std::to_string(field) +
                " set to " + std::to_string(inflated));
        ++(ok ? meta_loaded : meta_rejected);
      }
    }
    if (c.meta.sharded()) {
      EXPECT_GT(meta_loaded, 0) << c.name;
      EXPECT_GT(meta_rejected, 0) << c.name;
    }

    for (const auto& [off, width] : LengthFields(*c.source, c.meta)) {
      uint64_t value = 0;
      std::memcpy(&value, bytes.data() + off, width);
      const uint64_t max = width == sizeof(uint32_t)
                               ? std::numeric_limits<uint32_t>::max()
                               : std::numeric_limits<int64_t>::max();
      const uint64_t inflated_values[] = {value + 1, value + 4096,
                                          value + (uint64_t{1} << 30), max};
      for (uint64_t inflated : inflated_values) {
        std::string hacked = bytes;
        std::memcpy(hacked.data() + off, &inflated, width);
        const std::string what = std::string(c.name) + " length field at " +
                                 std::to_string(off) + " set to " +
                                 std::to_string(inflated);
        EXPECT_FALSE(LoadsOrLeavesModuleUntouched(c.target, path, hacked, what))
            << what;
      }
    }
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, TrainedDyHslRestoresExactPredictions) {
  data::TrafficDataset dataset = data::TrafficDataset::Generate(
      data::DatasetSpec::Pems08Like(0.1, 2, 9));
  ForecastTask task = ForecastTask::FromDataset(dataset);
  models::DyHslConfig cfg;
  cfg.hidden_dim = 8;
  cfg.prior_layers = 1;
  cfg.mhce_layers = 1;
  cfg.num_hyperedges = 4;
  cfg.window_sizes = {1, 12};
  cfg.dropout = 0.0f;
  models::DyHsl trained(task, cfg);
  TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 8;
  tc.max_batches_per_epoch = 5;
  TrainModel(&trained, dataset, tc);

  std::string path = TempPath("dyhsl.ckpt");
  ASSERT_TRUE(SaveCheckpoint(trained, path).ok());

  models::DyHsl restored(task, cfg);
  ASSERT_TRUE(LoadCheckpoint(&restored, path).ok());

  data::BatchIterator it(&dataset, {0, 2}, 2, false, 1);
  data::BatchIterator::Batch batch;
  it.Next(&batch);
  T::Tensor y1 = trained.Forward(batch.x, false).value();
  T::Tensor y2 = restored.Forward(batch.x, false).value();
  EXPECT_TENSOR_EQ(y1, y2);

  // The full (grad-free) evaluation pipeline must agree bit-for-bit too.
  EvalResult e1 = EvaluateModel(&trained, dataset, {0, 16}, 4);
  EvalResult e2 = EvaluateModel(&restored, dataset, {0, 16}, 4);
  EXPECT_EQ(e1.overall.mae, e2.overall.mae);
  EXPECT_EQ(e1.overall.rmse, e2.overall.rmse);
  EXPECT_EQ(e1.overall.mape, e2.overall.mape);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dyhsl::train
