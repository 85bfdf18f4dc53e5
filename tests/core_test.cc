// Unit tests for core utilities: Status/Result, Rng, run profiles, and
// the ThreadBudget / TeamScope parallelism layer.

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/parallel.h"
#include "src/core/profile.h"
#include "src/core/rng.h"
#include "src/core/status.h"
#include "tests/testing_utils.h"

namespace dyhsl {
namespace {

using ::dyhsl::testing::TeamConcurrencyProbe;

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad shape");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad shape");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kOutOfRange,
        StatusCode::kNotFound, StatusCode::kAlreadyExists, StatusCode::kIoError,
        StatusCode::kNotImplemented, StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 42);
  EXPECT_EQ(r.ValueOr(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  EXPECT_NE(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    double g = rng.Gaussian();
    sum += g;
    sq += g * g;
  }
  double mean = sum / kN;
  double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(13);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
  rng.Shuffle(&v);
  std::set<int> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 8u);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng a(5);
  Rng child = a.Split();
  EXPECT_NE(a.NextUint64(), child.NextUint64());
}

TEST(ParallelismTest, HonorsCapAndOverride) {
  // Without OpenMP the configured count is always 1; with it the cap and
  // the DYHSL_THREADS override must both be respected.
  if (std::getenv("OMP_NUM_THREADS") != nullptr) {
    GTEST_SKIP() << "OMP_NUM_THREADS set by the environment";
  }
  // Clear any ambient override so the cap branch is actually exercised.
  ASSERT_EQ(unsetenv("DYHSL_THREADS"), 0);
  int capped = ConfigureParallelism(/*max_threads=*/2);
  EXPECT_GE(capped, 1);
  EXPECT_LE(capped, 2);

  ASSERT_EQ(setenv("DYHSL_THREADS", "1", /*overwrite=*/1), 0);
  EXPECT_EQ(ConfigureParallelism(8), 1);
  ASSERT_EQ(unsetenv("DYHSL_THREADS"), 0);
  // Thread count is process-global OpenMP state; restore the default policy
  // so later tests in this binary are not pinned to one thread.
  ConfigureParallelism();
}

TEST(ParallelismTest, RejectsMalformedDyhslThreads) {
  if (std::getenv("OMP_NUM_THREADS") != nullptr) {
    GTEST_SKIP() << "OMP_NUM_THREADS set by the environment";
  }
  // Baseline: the hardware-cap branch with no override present at all.
  ASSERT_EQ(unsetenv("DYHSL_THREADS"), 0);
  const int baseline = ConfigureParallelism(/*max_threads=*/2);
  // Every one of these used to be mis-parsed by atoi ("4abc" -> 4) or
  // silently swallowed; strict parsing must treat them all exactly like
  // an unset variable.
  for (const char* junk : {"4abc", "0", "-3", "abc", "", "  ", "2.5",
                           "99999999999999999999"}) {
    ASSERT_EQ(setenv("DYHSL_THREADS", junk, /*overwrite=*/1), 0);
    EXPECT_EQ(ConfigureParallelism(/*max_threads=*/2), baseline)
        << "DYHSL_THREADS='" << junk << "'";
  }
  ASSERT_EQ(unsetenv("DYHSL_THREADS"), 0);
  ConfigureParallelism();
}

TEST(ParallelismTest, DyhslThreadsIsCappedAtMaxThreads) {
  if (std::getenv("OMP_NUM_THREADS") != nullptr) {
    GTEST_SKIP() << "OMP_NUM_THREADS set by the environment";
  }
  ASSERT_EQ(setenv("DYHSL_THREADS", "64", /*overwrite=*/1), 0);
  const int n = ConfigureParallelism(/*max_threads=*/2);
  EXPECT_GE(n, 1);
  EXPECT_LE(n, 2);  // never 64, whatever the hardware
  ASSERT_EQ(unsetenv("DYHSL_THREADS"), 0);
  ConfigureParallelism();
}

TEST(ParallelismTest, OmpNumThreadsPathHonorsTheCap) {
  // The early-return path used to hand back omp_get_max_threads()
  // uncapped; the documented max_threads cap applies there too.
  const bool had = std::getenv("OMP_NUM_THREADS") != nullptr;
  if (!had) {
    ASSERT_EQ(setenv("OMP_NUM_THREADS", "16", /*overwrite=*/1), 0);
  }
  const int n = ConfigureParallelism(/*max_threads=*/2);
  EXPECT_GE(n, 1);
  EXPECT_LE(n, 2);
  if (!had) {
    ASSERT_EQ(unsetenv("OMP_NUM_THREADS"), 0);
    ConfigureParallelism();
  }
}

TEST(ThreadBudgetTest, PartitionNeverOversubscribes) {
  for (int total = 1; total <= 9; ++total) {
    for (int workers = 1; workers <= 12; ++workers) {
      core::ThreadBudget budget = core::ThreadBudget::Partition(total, workers);
      EXPECT_EQ(budget.total, total);
      EXPECT_GE(budget.num_workers, 1);
      EXPECT_GE(budget.team_size, 1);
      EXPECT_LE(budget.num_workers * budget.team_size, total)
          << total << " across " << workers;
      EXPECT_LE(budget.num_workers, workers);
    }
  }
}

TEST(ThreadBudgetTest, PartitionSplitsAndClamps) {
  core::ThreadBudget even = core::ThreadBudget::Partition(4, 2);
  EXPECT_EQ(even.num_workers, 2);
  EXPECT_EQ(even.team_size, 2);
  // Leftover threads stay idle rather than oversubscribe.
  core::ThreadBudget ragged = core::ThreadBudget::Partition(5, 2);
  EXPECT_EQ(ragged.team_size, 2);
  // More workers than threads: workers clamp to the budget.
  core::ThreadBudget thin = core::ThreadBudget::Partition(2, 8);
  EXPECT_EQ(thin.num_workers, 2);
  EXPECT_EQ(thin.team_size, 1);
  // Degenerate inputs clamp to one thread.
  core::ThreadBudget degenerate = core::ThreadBudget::Partition(0, 0);
  EXPECT_EQ(degenerate.total, 1);
  EXPECT_EQ(degenerate.num_workers, 1);
  EXPECT_EQ(degenerate.team_size, 1);
}

TEST(TeamScopeTest, OverridesNestsAndRestores) {
  const int ambient = core::TeamThreads();
  EXPECT_GE(ambient, 1);
  {
    core::TeamScope outer(3);
    EXPECT_EQ(core::TeamThreads(), 3);
    {
      core::TeamScope inner(1);
      EXPECT_EQ(core::TeamThreads(), 1);
    }
    EXPECT_EQ(core::TeamThreads(), 3);
    {
      core::TeamScope clamped(0);  // clamps to >= 1
      EXPECT_EQ(core::TeamThreads(), 1);
    }
  }
  EXPECT_EQ(core::TeamThreads(), ambient);
}

TEST(TeamScopeTest, ScopeIsThreadLocal) {
  core::TeamScope mine(2);
  int seen_in_peer = -1;
  std::thread peer([&] { seen_in_peer = core::TeamThreads(); });
  peer.join();
  // The peer never entered a scope, so it sees the ambient default, not
  // this thread's override.
  EXPECT_EQ(core::TeamThreads(), 2);
  EXPECT_NE(seen_in_peer, -1);
  EXPECT_GE(seen_in_peer, 1);
}

TEST(ThreadBudgetTest, ScopedWorkersNeverExceedBudget) {
  // The oversubscription regression: 2 workers, each scoping kernels to
  // its ThreadBudget slice, must never have more than `total` kernel
  // threads live at once — even when the ambient OpenMP default would
  // give every worker a full team.
  const core::ThreadBudget budget = core::ThreadBudget::Partition(4, 2);
  std::atomic<int> live{0};
  std::atomic<int> peak{0};
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(budget.num_workers));
  for (int w = 0; w < budget.num_workers; ++w) {
    workers.emplace_back([&] {
      core::TeamScope team(budget.team_size);
      for (int i = 0; i < 40; ++i) {
        const int ran =
            TeamConcurrencyProbe(&live, &peak, /*spin_micros=*/200);
        EXPECT_GE(ran, 1);
        EXPECT_LE(ran, budget.team_size);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_GE(peak.load(), 1);
  EXPECT_LE(peak.load(), budget.total);
}

TEST(ParallelismTest, AvailableCoresMatchesHardwareThreads) {
  const std::vector<int> cores = core::AvailableCores();
  ASSERT_FALSE(cores.empty());
  EXPECT_EQ(static_cast<int>(cores.size()), core::HardwareThreads());
  EXPECT_TRUE(std::is_sorted(cores.begin(), cores.end()));
  for (int c : cores) EXPECT_GE(c, 0);
}

TEST(ParallelismTest, PinCurrentThreadValidatesAndPins) {
  EXPECT_EQ(core::PinCurrentThread({}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(core::PinCurrentThread({-1}).code(),
            StatusCode::kInvalidArgument);
  // Pin to everything we are already allowed to run on: must succeed and
  // must not wedge this thread.
  const std::vector<int> cores = core::AvailableCores();
  Status pinned = core::PinCurrentThread(cores);
  EXPECT_TRUE(pinned.ok()) << pinned.ToString();
}

TEST(ProfileTest, ParseNames) {
  EXPECT_EQ(ParseRunProfile("tiny"), RunProfile::kTiny);
  EXPECT_EQ(ParseRunProfile("full"), RunProfile::kFull);
  EXPECT_EQ(ParseRunProfile("quick"), RunProfile::kQuick);
  EXPECT_EQ(ParseRunProfile("garbage"), RunProfile::kQuick);
}

TEST(ProfileTest, KnobsMonotoneInScale) {
  ProfileKnobs tiny = GetProfileKnobs(RunProfile::kTiny);
  ProfileKnobs quick = GetProfileKnobs(RunProfile::kQuick);
  ProfileKnobs full = GetProfileKnobs(RunProfile::kFull);
  EXPECT_LT(tiny.node_scale, quick.node_scale);
  EXPECT_LT(quick.node_scale, full.node_scale);
  EXPECT_LE(tiny.train_epochs, quick.train_epochs);
  EXPECT_LE(quick.train_epochs, full.train_epochs);
}

TEST(ProfileTest, RoundTripNames) {
  for (RunProfile p :
       {RunProfile::kTiny, RunProfile::kQuick, RunProfile::kFull}) {
    EXPECT_EQ(ParseRunProfile(RunProfileName(p)), p);
  }
}

}  // namespace
}  // namespace dyhsl
