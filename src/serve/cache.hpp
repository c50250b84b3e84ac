// The prepared-pipeline cache — the reason mstep_served exists.
//
// Solver::prepare is the expensive half of a solve (greedy colouring,
// symmetric permutation, splitting assembly, alpha selection); repeat
// traffic for the same operator under the same configuration should pay
// it once.  The cache maps (pipeline fingerprint × canonical SolverConfig
// string) to a live Solver+Prepared pair plus the shared problem data the
// Prepared points into, LRU-evicted under a byte budget.  Entries are
// handed out as shared_ptr, so an in-flight solve keeps its pipeline
// alive even if the entry is evicted mid-solve — eviction drops the
// cache's reference, never the solve's.
//
// tests/test_serve_cache.cpp pins the contract: hit on identical
// matrix+config, miss when either changes, LRU eviction under a tiny
// budget, and results bitwise identical to a direct Solver call.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "color/coloring.hpp"
#include "la/csr_matrix.hpp"
#include "la/vector.hpp"
#include "solver/solver.hpp"

namespace mstep::serve {

/// The pipeline input a cache entry is bound to, shared between the entry
/// (whose Prepared points into `matrix`) and any fingerprint-addressed
/// request that wants to reuse the operator under a new config.  Heap
/// placement keeps `matrix` at a stable address for the Prepared's
/// internal pointers.
struct ProblemData {
  la::CsrMatrix matrix;
  color::ColorClasses classes;  // closed-form classes; empty = greedy
  Vec rhs;                      // the problem's own RHS; empty = b is K*1
  std::string description;
  std::uint64_t fingerprint = 0;  // pipeline_fingerprint(matrix, classes)
};

/// Build ProblemData (computing the fingerprint) from its parts.
[[nodiscard]] std::shared_ptr<const ProblemData> make_problem_data(
    la::CsrMatrix matrix, color::ColorClasses classes = {}, Vec rhs = {},
    std::string description = {});

class PreparedCache {
 public:
  struct Entry {
    std::shared_ptr<const ProblemData> problem;
    solver::Solver solver;      // owns the entry's thread pool
    solver::Prepared prepared;  // pipeline bound to problem->matrix
    std::size_t bytes = 0;      // this entry's budget charge
  };
  using EntryPtr = std::shared_ptr<const Entry>;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
    std::size_t bytes = 0;
    std::size_t capacity_bytes = 0;

    [[nodiscard]] double hit_rate() const {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(total);
    }
  };

  /// `capacity_bytes` bounds the sum of entry estimates; at least one
  /// entry is always admitted (a single oversized pipeline evicts
  /// everything else rather than thrash on every request).
  explicit PreparedCache(std::size_t capacity_bytes);

  struct Lookup {
    EntryPtr entry;
    bool hit = false;
  };

  /// The one cache operation: return the entry for (fingerprint, config),
  /// building it via `load` + Solver::prepare on a miss.  `config` must
  /// be validated and `canonical_config` its to_string() — the canonical
  /// form IS the key, so "m=4;splitting=ssor" and the flag-order variants
  /// collapse to one entry.  Preparation runs outside the cache lock:
  /// hits never wait behind a concurrent miss's prepare (two concurrent
  /// misses of the same key may both prepare; the first insert wins).
  [[nodiscard]] Lookup get_or_prepare(
      std::uint64_t fingerprint, const solver::SolverConfig& config,
      const std::string& canonical_config,
      const std::function<std::shared_ptr<const ProblemData>()>& load);

  /// The problem data behind any resident entry with this fingerprint —
  /// how a MatrixSource::kFingerprint request avoids resending the
  /// matrix.  nullptr when no entry holds it (evicted or never seen).
  [[nodiscard]] std::shared_ptr<const ProblemData> find_matrix(
      std::uint64_t fingerprint) const;

  [[nodiscard]] Stats stats() const;
  void clear();

 private:
  using Key = std::pair<std::uint64_t, std::string>;
  struct Slot {
    EntryPtr entry;
    std::list<Key>::iterator lru_pos;  // back of lru_ = most recent
  };

  void evict_to_fit_locked(std::size_t incoming_bytes);

  mutable std::mutex mutex_;
  std::size_t capacity_bytes_;
  std::size_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::map<Key, Slot> entries_;
  std::list<Key> lru_;  // front = least recently used
};

/// Budget estimate for one prepared pipeline: the problem data plus the
/// Prepared's own copies (the colour-permuted matrix when multicolour, the
/// run storage at its actual size, the sweep's leftover segments) plus
/// fixed overhead.  An estimate, not an audit — documented in
/// docs/protocol.md.
[[nodiscard]] std::size_t estimate_entry_bytes(
    const ProblemData& problem, const solver::Prepared& prepared);

}  // namespace mstep::serve
