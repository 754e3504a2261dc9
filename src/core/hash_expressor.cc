#include "core/hash_expressor.h"

#include <cassert>

namespace habf {

HashExpressor::HashExpressor(size_t num_cells, unsigned cell_bits,
                             const HashProvider* provider, uint64_t f_seed)
    : num_cells_(num_cells),
      cell_bits_(cell_bits),
      provider_(provider),
      num_functions_(provider->NumFunctions()),
      f_seed_(f_seed),
      cells_(num_cells * cell_bits) {
  assert(num_cells >= 1);
  assert(cell_bits >= 2 && cell_bits <= 8);
  assert(provider != nullptr);
}

void HashExpressor::PlanDfs(std::string_view key, size_t cell,
                            uint32_t remaining_mask, const uint8_t* fns,
                            size_t n,
                            std::vector<std::pair<uint32_t, uint8_t>>& writes,
                            int overlap, int* node_budget,
                            InsertPlan* best) const {
  assert(remaining_mask != 0);  // terminal states are handled in `recurse`
  if (*node_budget <= 0) return;
  --*node_budget;

  // Effective state of `cell`: a pending write shadows the stored value.
  uint8_t pending = 0;
  for (const auto& w : writes) {
    if (w.first == cell) {
      pending = w.second;
      break;
    }
  }
  const Cell stored = ReadCell(cell);
  const uint8_t hashindex = pending != 0 ? pending : stored.hashindex;

  auto recurse = [&](size_t fn_pos, bool is_shared) {
    const uint8_t fn = fns[fn_pos];
    const uint32_t next_mask = remaining_mask & ~(uint32_t{1} << fn_pos);
    const int next_overlap = overlap + (is_shared ? 1 : 0);
    if (next_mask == 0) {
      // Chain complete; record if better than the best found so far.
      if (!best->ok || next_overlap > best->overlap) {
        best->ok = true;
        best->overlap = next_overlap;
        best->writes = writes;
        best->end_cell = static_cast<uint32_t>(cell);
      }
      return;
    }
    PlanDfs(key, NextCell(key, fn), next_mask, fns, n, writes, next_overlap,
            node_budget, best);
  };

  if (hashindex == 0) {
    // Case 1: empty cell — try every remaining member here.
    for (size_t i = 0; i < n; ++i) {
      if ((remaining_mask & (uint32_t{1} << i)) == 0) continue;
      writes.emplace_back(static_cast<uint32_t>(cell),
                          static_cast<uint8_t>(fns[i] + 1));
      recurse(i, /*is_shared=*/false);
      writes.pop_back();
    }
    return;
  }

  // Case 2: occupied cell — usable only if it stores a still-unplaced member
  // of φ(e). A pending cell of our own chain can never match (its member was
  // already placed), which implements insertion Case 3 for self-collisions.
  if (pending == 0) {
    const uint8_t stored_fn = static_cast<uint8_t>(hashindex - 1);
    for (size_t i = 0; i < n; ++i) {
      if ((remaining_mask & (uint32_t{1} << i)) == 0) continue;
      if (fns[i] == stored_fn) {
        recurse(i, /*is_shared=*/true);
        break;  // members are distinct; at most one can match
      }
    }
  }
  // Otherwise Case 3: this order fails; backtrack.
}

HashExpressor::InsertPlan HashExpressor::Plan(std::string_view key,
                                              const uint8_t* fns,
                                              size_t n) const {
  assert(n >= 1 && n <= 16);
  for (size_t i = 0; i < n; ++i) {
    assert(fns[i] <= max_function_index());
    assert(fns[i] < provider_->NumFunctions());
    (void)i;
  }
  InsertPlan best;
  std::vector<std::pair<uint32_t, uint8_t>> writes;
  writes.reserve(n);
  const uint32_t full_mask = n == 32 ? ~uint32_t{0} : (uint32_t{1} << n) - 1;
  // Exhaustive for k <= 5 (at most 5! + internal nodes); truncated beyond.
  int node_budget = 512;
  PlanDfs(key, EntryCell(key), full_mask, fns, n, writes, 0, &node_budget,
          &best);
  return best;
}

void HashExpressor::Commit(const InsertPlan& plan) {
  assert(plan.ok);
  for (const auto& [cell, hashindex] : plan.writes) {
    WriteCell(cell, /*endbit=*/false, hashindex);
  }
  const Cell end = ReadCell(plan.end_cell);
  assert(end.hashindex != 0);
  WriteCell(plan.end_cell, /*endbit=*/true, end.hashindex);
  ++num_inserted_;
}

bool HashExpressor::Insert(std::string_view key, const uint8_t* fns,
                           size_t n) {
  InsertPlan plan = Plan(key, fns, n);
  if (!plan.ok) return false;
  Commit(plan);
  return true;
}

double HashExpressor::FillRatio() const {
  size_t used = 0;
  for (size_t i = 0; i < num_cells_; ++i) {
    if (ReadCell(i).hashindex != 0) ++used;
  }
  return num_cells_ == 0
             ? 0.0
             : static_cast<double>(used) / static_cast<double>(num_cells_);
}

}  // namespace habf
