#include "serve/cache.hpp"

#include "core/multicolor_mstep.hpp"
#include "serve/hash.hpp"
#include "solver/config.hpp"

namespace mstep::serve {

std::shared_ptr<const ProblemData> make_problem_data(
    la::CsrMatrix matrix, color::ColorClasses classes, Vec rhs,
    std::string description) {
  auto data = std::make_shared<ProblemData>();
  data->matrix = std::move(matrix);
  data->classes = std::move(classes);
  data->rhs = std::move(rhs);
  data->description = std::move(description);
  data->fingerprint = pipeline_fingerprint(data->matrix, data->classes);
  return data;
}

PreparedCache::PreparedCache(std::size_t capacity_bytes)
    : capacity_bytes_(capacity_bytes) {}

PreparedCache::Lookup PreparedCache::get_or_prepare(
    std::uint64_t fingerprint, const solver::SolverConfig& config,
    const std::string& canonical_config,
    const std::function<std::shared_ptr<const ProblemData>()>& load) {
  const Key key{fingerprint, canonical_config};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++hits_;
      lru_.splice(lru_.end(), lru_, it->second.lru_pos);  // mark most recent
      return {it->second.entry, true};
    }
    ++misses_;
  }

  // Build outside the lock: a slow prepare must not block concurrent hits.
  std::shared_ptr<const ProblemData> problem = load();
  auto solver = solver::Solver::from_config(config);
  auto prepared = problem->classes.classes.empty()
                      ? solver.prepare(problem->matrix)
                      : solver.prepare(problem->matrix, problem->classes);
  const std::size_t bytes = estimate_entry_bytes(*problem, prepared);
  auto entry = std::make_shared<const Entry>(Entry{
      std::move(problem), std::move(solver), std::move(prepared), bytes});

  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    // A concurrent miss inserted first; serve that entry, drop ours.
    lru_.splice(lru_.end(), lru_, it->second.lru_pos);
    return {it->second.entry, false};
  }
  evict_to_fit_locked(bytes);
  const auto lru_pos = lru_.insert(lru_.end(), key);
  entries_.emplace(key, Slot{entry, lru_pos});
  bytes_ += bytes;
  return {entry, false};
}

void PreparedCache::evict_to_fit_locked(std::size_t incoming_bytes) {
  // Always admit the incoming entry, even one bigger than the whole
  // budget — it evicts everything else instead of thrashing forever.
  while (!lru_.empty() && bytes_ + incoming_bytes > capacity_bytes_) {
    const Key& victim = lru_.front();
    const auto it = entries_.find(victim);
    bytes_ -= it->second.entry->bytes;
    entries_.erase(it);
    lru_.pop_front();
    ++evictions_;
  }
}

std::shared_ptr<const ProblemData> PreparedCache::find_matrix(
    std::uint64_t fingerprint) const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Keys sort by fingerprint first, so all configs of one matrix are
  // contiguous; lower_bound lands on the first.
  const auto it = entries_.lower_bound(Key{fingerprint, std::string()});
  if (it == entries_.end() || it->first.first != fingerprint) return nullptr;
  return it->second.entry->problem;
}

PreparedCache::Stats PreparedCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.entries = entries_.size();
  s.bytes = bytes_;
  s.capacity_bytes = capacity_bytes_;
  return s;
}

void PreparedCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  lru_.clear();
  bytes_ = 0;
}

std::size_t estimate_entry_bytes(const ProblemData& problem,
                                 const solver::Prepared& prepared) {
  const auto csr_bytes = [](const la::CsrMatrix& m) {
    return static_cast<std::size_t>(m.nnz()) *
               (sizeof(double) + sizeof(index_t)) +
           static_cast<std::size_t>(m.rows() + 1) * sizeof(index_t);
  };
  std::size_t bytes = csr_bytes(problem.matrix);
  // The colour permutation copies the matrix (plus two index maps).  The
  // one storage every product and the sweep read is priced at its actual
  // size, and the sweep adds only its leftover SELL segments and run views.
  if (prepared.coloring().used) {
    bytes += csr_bytes(problem.matrix) +
             2 * static_cast<std::size_t>(problem.matrix.rows()) *
                 sizeof(index_t);
  }
  bytes += prepared.storage().stored_bytes();
  if (const auto* sweep = dynamic_cast<const core::MulticolorMStepSsor*>(
          &prepared.preconditioner())) {
    for (const auto* half : {&sweep->plan()->lower, &sweep->plan()->upper}) {
      for (const la::SweepSegments& segs : *half) {
        bytes += segs.stored_bytes();
      }
    }
  }
  bytes += problem.rhs.size() * sizeof(double);
  bytes += prepared.alphas().size() * sizeof(double);
  return bytes + 4096;  // splitting/preconditioner/bookkeeping overhead
}

}  // namespace mstep::serve
