#include "sweep/sweep_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "sweep/thread_pool.h"

namespace memca::sweep {
namespace {

TEST(ThreadPool, RunsEveryPostedJob) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    for (int i = 0; i < 100; ++i) {
      pool.post([&done] { done.fetch_add(1); });
    }
    pool.wait_idle();
    EXPECT_EQ(done.load(), 100);
  }
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.post([&done] { done.fetch_add(1); });
  }
  EXPECT_EQ(done.load(), 50);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
}

TEST(DefaultThreadCount, IsPositive) { EXPECT_GE(default_thread_count(), 1); }

TEST(SweepRunner, ResultsArriveInCellOrder) {
  // Give earlier cells longer work so they finish last: order must still be
  // by cell index, not completion.
  SweepRunner runner({4});
  std::vector<std::function<int()>> cells;
  for (int i = 0; i < 8; ++i) {
    cells.push_back([i] {
      std::this_thread::sleep_for(std::chrono::milliseconds((8 - i) * 5));
      return i * 10;
    });
  }
  const std::vector<int> results = runner.run(std::move(cells));
  ASSERT_EQ(results.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(results[static_cast<std::size_t>(i)], i * 10);
}

TEST(SweepRunner, SingleThreadRunsInline) {
  SweepRunner runner({1});
  EXPECT_EQ(runner.threads(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::function<std::thread::id()>> cells;
  for (int i = 0; i < 3; ++i) {
    cells.push_back([] { return std::this_thread::get_id(); });
  }
  for (std::thread::id id : runner.run(std::move(cells))) EXPECT_EQ(id, caller);
}

TEST(SweepRunner, MapPreservesOrder) {
  SweepRunner runner({4});
  const std::vector<int> inputs = {5, 3, 9, 1, 7};
  const std::vector<int> doubled = runner.map(inputs, [](int v) { return v * 2; });
  ASSERT_EQ(doubled.size(), inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) EXPECT_EQ(doubled[i], inputs[i] * 2);
}

TEST(SweepRunner, EmptyBatchReturnsEmpty) {
  SweepRunner runner({4});
  EXPECT_TRUE(runner.run(std::vector<std::function<int()>>{}).empty());
}

TEST(SweepRunner, CellExceptionPropagates) {
  SweepRunner runner({2});
  std::vector<std::function<int()>> cells;
  cells.push_back([] { return 1; });
  cells.push_back([]() -> int { throw std::runtime_error("cell failed"); });
  cells.push_back([] { return 3; });
  EXPECT_THROW(runner.run(std::move(cells)), std::runtime_error);
}

TEST(SweepRunner, FirstExceptionInCellOrderIsRethrown) {
  // Cell 5 throws first in wall-clock time (cell 1 sleeps before throwing),
  // but the error a caller sees must be the lowest-indexed one — the same
  // at every thread count.
  for (int threads : {1, 2, 4}) {
    SweepRunner runner({threads});
    std::vector<std::function<int()>> cells;
    cells.push_back([] { return 0; });
    cells.push_back([]() -> int {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      throw std::runtime_error("cell-1");
    });
    for (int i = 2; i < 5; ++i) cells.push_back([i] { return i; });
    cells.push_back([]() -> int { throw std::logic_error("cell-5"); });
    try {
      runner.run(std::move(cells));
      FAIL() << "batch with throwing cells must rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "cell-1") << "threads=" << threads;
    } catch (const std::logic_error&) {
      FAIL() << "completion-order error surfaced instead of cell order, threads="
             << threads;
    }
  }
}

TEST(SweepRunner, RemainingCellsRunAfterAnException) {
  SweepRunner runner({2});
  std::atomic<int> ran{0};
  std::vector<std::function<int()>> cells;
  for (int i = 0; i < 6; ++i) {
    cells.push_back([i, &ran]() -> int {
      ran.fetch_add(1);
      if (i == 0) throw std::runtime_error("early");
      return i;
    });
  }
  EXPECT_THROW(runner.run(std::move(cells)), std::runtime_error);
  EXPECT_EQ(ran.load(), 6);
}

TEST(SweepRunner, MoveOnlyCellsRun) {
  struct MoveOnlyCell {
    std::unique_ptr<int> payload;
    int operator()() const { return *payload; }
  };
  SweepRunner runner({2});
  std::vector<MoveOnlyCell> cells;
  for (int i = 0; i < 5; ++i) cells.push_back({std::make_unique<int>(i * 7)});
  const std::vector<int> results = runner.run(std::move(cells));
  ASSERT_EQ(results.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(results[static_cast<std::size_t>(i)], i * 7);
}

TEST(SweepRunner, WorkerCacheIsBuiltOncePerWorkerChunk) {
  // 8 cells that all fit one world on 2 workers: contiguous chunking means
  // exactly one build per worker — a work-stealing counter would interleave
  // cells and rebuild on every worker switch.
  std::atomic<int> builds{0};
  auto make_cells = [&builds] {
    std::vector<std::function<int(WorkerCache&)>> cells;
    for (int i = 0; i < 8; ++i) {
      cells.push_back([&builds, i](WorkerCache& cache) {
        int& world = cache.get_or_build<int>([](const int& w) { return w == 123; },
                                             [&builds] {
                                               builds.fetch_add(1);
                                               return std::make_unique<int>(123);
                                             });
        return world + i;
      });
    }
    return cells;
  };

  builds.store(0);
  SweepRunner inline_runner({1});
  inline_runner.run(make_cells());
  EXPECT_EQ(builds.load(), 1);

  builds.store(0);
  SweepRunner pooled(SweepOptions{2});
  const std::vector<int> results = pooled.run(make_cells());
  EXPECT_EQ(builds.load(), 2);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(results[static_cast<std::size_t>(i)], 123 + i);
}

TEST(SweepRunner, WorkerCacheRebuildsOnKeyChange) {
  // Cells 0-2 need world 1, cells 3-5 world 2: the predicate rejects the
  // cached world once, at the boundary.
  std::atomic<int> builds{0};
  std::vector<std::function<int(WorkerCache&)>> cells;
  for (int i = 0; i < 6; ++i) {
    const int key = i < 3 ? 1 : 2;
    cells.push_back([&builds, key](WorkerCache& cache) {
      return cache.get_or_build<int>([key](const int& w) { return w == key; },
                                     [&builds, key] {
                                       builds.fetch_add(1);
                                       return std::make_unique<int>(key);
                                     });
    });
  }
  SweepRunner runner({1});
  const std::vector<int> results = runner.run(std::move(cells));
  EXPECT_EQ(builds.load(), 2);
  EXPECT_EQ(results, (std::vector<int>{1, 1, 1, 2, 2, 2}));
}

TEST(SweepRunner, RngHeavyCellsAreBitIdenticalAcrossThreadCounts) {
  // Each cell runs its own forked RNG stream; the aggregate must not depend
  // on how many workers executed the batch.
  auto run_with = [](int threads) {
    SweepRunner runner({threads});
    std::vector<int> seeds(16);
    std::iota(seeds.begin(), seeds.end(), 0);
    return runner.map(seeds, [](int seed) {
      Rng rng(static_cast<std::uint64_t>(seed) + 1);
      double sum = 0.0;
      for (int i = 0; i < 10000; ++i) sum += rng.exponential(3.0);
      return sum;
    });
  };
  const std::vector<double> sequential = run_with(1);
  const std::vector<double> parallel = run_with(4);
  ASSERT_EQ(sequential.size(), parallel.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(sequential[i], parallel[i]) << "cell " << i;
  }
}

}  // namespace
}  // namespace memca::sweep
