// Deterministic parallel execution of independent scenario cells.
//
// Every figure and ablation reduces to evaluating an embarrassingly-parallel
// grid of attack parameters, one full Simulator/RubbosTestbed per cell.
// SweepRunner executes such a batch on a thread pool and returns results in
// cell order regardless of scheduling. Because each cell owns its entire
// simulation (simulator, RNG streams forked from the cell's own seed,
// monitors), per-seed results are bit-identical to running the cells
// sequentially — a property the sweep determinism test enforces.
//
// Scheduling is worker-affine: the batch is split into contiguous chunks,
// one per worker, instead of being handed out through a shared counter.
// Adjacent cells therefore run on the same worker in cell order, which is
// what lets a cell reuse its predecessor's warmed-up world through the
// WorkerCache — a work-stealing counter would interleave cells across
// workers and defeat the reuse on every boundary.
//
// Cells must be independent: no shared mutable state beyond the per-worker
// cache, each builds (or reuses) its own world. Result types must be
// default-constructible and movable.
#pragma once

#include <algorithm>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <type_traits>
#include <typeinfo>
#include <utility>
#include <vector>

#include "sweep/thread_pool.h"

namespace memca::sweep {

struct SweepOptions {
  /// Worker threads; 0 = default_thread_count() (see thread_pool.h).
  /// 1 runs the cells inline on the calling thread, spawning nothing.
  int threads = 0;
};

/// One reusable slot of worker-local state. A cell asks for "a world that
/// fits me"; if the previous cell on this worker left one behind that the
/// cell's predicate accepts, it is returned as-is (warm), otherwise the old
/// world is destroyed and a fresh one built. Single-slot on purpose: cells
/// that fit one world must be contiguous in the batch (sort your grid so the
/// expensive-to-build prefix varies slowest), and everything a worker built
/// dies on that worker's thread — thread-local state such as the log
/// counter's scope chain stays balanced.
class WorkerCache {
 public:
  WorkerCache() = default;
  WorkerCache(const WorkerCache&) = delete;
  WorkerCache& operator=(const WorkerCache&) = delete;

  /// Returns the cached T when `fits(const T&)` holds for it, else builds
  /// one with `build()` (a callable returning std::unique_ptr<T>); a cached
  /// value of another type never fits. The previous occupant is destroyed
  /// *before* build runs, so scoped thread-local state (e.g.
  /// ScopedLogCounter) unwinds in LIFO order.
  template <typename T, typename Fits, typename Builder>
  T& get_or_build(Fits&& fits, Builder&& build) {
    if (value_ == nullptr || type_ != &typeid(T) ||
        !fits(*static_cast<const T*>(value_.get()))) {
      value_.reset();
      type_ = &typeid(T);
      std::unique_ptr<T> built = build();
      value_ = Holder(built.release(), [](void* p) { delete static_cast<T*>(p); });
    }
    return *static_cast<T*>(value_.get());
  }

  /// Destroys the cached value (if any).
  void clear() {
    value_.reset();
    type_ = nullptr;
  }

 private:
  using Holder = std::unique_ptr<void, void (*)(void*)>;
  const std::type_info* type_ = nullptr;
  Holder value_{nullptr, [](void*) {}};
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {})
      : threads_(options.threads > 0 ? options.threads : default_thread_count()) {}

  int threads() const { return threads_; }

  /// Runs every cell, returning results[i] == cells[i]() in cell order.
  /// Cells may be move-only callables, invoked either as cell() or — when
  /// the cell accepts it — as cell(WorkerCache&), giving it access to the
  /// worker's reusable world slot.
  ///
  /// If cells throw, every remaining cell still runs and the exception of
  /// the *lowest-indexed* throwing cell is rethrown after the batch drains —
  /// in cell order, not completion order, so the error a caller sees does
  /// not depend on the thread count.
  template <typename Cell>
  auto run(std::vector<Cell> cells) const {
    using Result = decltype(invoke_cell(std::declval<Cell&>(),
                                        std::declval<WorkerCache&>()));
    std::vector<Result> results(cells.size());
    std::vector<std::exception_ptr> errors(cells.size());
    const int workers =
        static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(threads_),
                                               cells.size()));
    if (workers <= 1) {
      WorkerCache cache;
      run_range(cells, results, errors, 0, cells.size(), cache);
    } else {
      // Contiguous chunks, one per worker (see file comment).
      const std::size_t chunk = (cells.size() + workers - 1) / workers;
      ThreadPool pool(workers);
      for (int w = 0; w < workers; ++w) {
        const std::size_t begin = static_cast<std::size_t>(w) * chunk;
        const std::size_t end = std::min(cells.size(), begin + chunk);
        if (begin >= end) break;
        pool.post([&, begin, end] {
          WorkerCache cache;
          run_range(cells, results, errors, begin, end, cache);
        });
      }
      pool.wait_idle();
    }
    for (std::exception_ptr& error : errors) {
      if (error) std::rethrow_exception(error);
    }
    return results;
  }

  /// Maps `fn` over `cells` in parallel, preserving order:
  /// returns {fn(cells[0]), fn(cells[1]), ...}. `fn` may take the cell
  /// alone or (const Cell&, WorkerCache&).
  template <typename Cell, typename Fn>
  auto map(std::vector<Cell> cells, Fn fn) const {
    struct Thunk {
      std::shared_ptr<std::vector<Cell>> cells;
      Fn fn;
      std::size_t i;
      auto operator()(WorkerCache& cache) {
        if constexpr (std::is_invocable_v<Fn&, const Cell&, WorkerCache&>) {
          return fn((*cells)[i], cache);
        } else {
          return fn((*cells)[i]);
        }
      }
    };
    auto shared_cells = std::make_shared<std::vector<Cell>>(std::move(cells));
    std::vector<Thunk> thunks;
    thunks.reserve(shared_cells->size());
    for (std::size_t i = 0; i < shared_cells->size(); ++i) {
      thunks.push_back(Thunk{shared_cells, fn, i});
    }
    return run(std::move(thunks));
  }

 private:
  template <typename Cell>
  static auto invoke_cell(Cell& cell, WorkerCache& cache) {
    if constexpr (std::is_invocable_v<Cell&, WorkerCache&>) {
      return cell(cache);
    } else {
      return cell();
    }
  }

  template <typename Cell, typename Result>
  static void run_range(std::vector<Cell>& cells, std::vector<Result>& results,
                        std::vector<std::exception_ptr>& errors, std::size_t begin,
                        std::size_t end, WorkerCache& cache) {
    for (std::size_t i = begin; i < end; ++i) {
      try {
        results[i] = invoke_cell(cells[i], cache);
      } catch (...) {
        errors[i] = std::current_exception();
        // A throw may have left the cached world mid-mutation; drop it so
        // the next cell rebuilds instead of reusing poisoned state.
        cache.clear();
      }
    }
  }

  int threads_;
};

}  // namespace memca::sweep
