// HashExpressor (paper §III-C): a lightweight probabilistic hash table that
// stores the customized hash-function subsets of adjusted positive keys.
//
// The table is ω cells of `cell_bits` bits each; a cell is the 2-tuple
// ⟨endbit, hashindex⟩ (1 bit + cell_bits-1 bits). hashindex 0 is reserved,
// so an all-zero cell means *empty* and the family addressable through a
// cell has 2^(cell_bits-1) - 1 members.
//
// A key's subset φ(e) = {h_a, h_b, ...} is stored as a chain: the key is
// mapped to its first cell by a dedicated function f, each visited cell
// stores one member of φ(e), and the next cell is addressed by the member
// just stored. Cells can be *shared* between keys when the stored function
// matches (insertion Case 2), which is what makes the table compact. The
// endbit of the final chain cell is 1.
//
// Query walks the same chain and has zero false negatives for inserted keys;
// a small false positive rate Fh <= t/ω (Theorem of §III-F) arises when an
// uninserted key's walk happens to end on an endbit=1 cell.

#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "hashing/hash_provider.h"
#include "util/bitvector.h"
#include "util/rng.h"

namespace habf {

/// The customized-hash-subset store of HABF.
class HashExpressor {
 public:
  /// A dry-run insertion plan: the exact cell writes a Commit would apply.
  /// Produced by Plan() so the TPJO optimizer can rank candidate subsets by
  /// `overlap` (shared cells) before mutating the table.
  struct InsertPlan {
    bool ok = false;
    /// Number of chain cells shared with already-stored chains.
    int overlap = 0;
    /// (cell index, hashindex value) pairs to write, in chain order.
    std::vector<std::pair<uint32_t, uint8_t>> writes;
    /// Cell whose endbit must be set to 1.
    uint32_t end_cell = 0;
  };

  /// Creates a table of `num_cells` cells of `cell_bits` bits (3..8).
  /// `provider` supplies the indexed family for chain stepping and must
  /// outlive the table; `f_seed` seeds the dedicated entry function f.
  HashExpressor(size_t num_cells, unsigned cell_bits,
                const HashProvider* provider, uint64_t f_seed);

  /// Tries to find a feasible chain storing the subset `fns[0..n)` (distinct
  /// function indices). Searches all storage orders and returns the feasible
  /// plan with maximum overlap; `ok == false` when no order fits.
  InsertPlan Plan(std::string_view key, const uint8_t* fns, size_t n) const;

  /// Applies a feasible plan returned by Plan().
  void Commit(const InsertPlan& plan);

  /// Convenience: Plan + Commit. Returns false when insertion is impossible.
  bool Insert(std::string_view key, const uint8_t* fns, size_t n);

  /// Walks the chain for `key`. On success fills `fns[0..n)` with the stored
  /// subset (chain order) and returns true; returns false when the walk hits
  /// an empty cell or the final endbit is 0 (caller falls back to H0).
  /// A complete walk evaluates n-1 family functions, one per step between
  /// cells; `n` must be at least 1.
  bool Query(std::string_view key, uint8_t* fns, size_t n) const {
    return QueryFrom(key, EntryCell(key), fns, n);
  }

  /// Query() from a precomputed `entry_cell` == EntryCell(key), for callers
  /// that probe one key many times against a changing table (the builder).
  bool QueryFrom(std::string_view key, size_t entry_cell, uint8_t* fns,
                 size_t n) const {
    return Walk(
        entry_cell, [&](uint8_t fn) { return provider_->Value(key, fn); },
        fns, n);
  }

  /// The one chain walk behind Query and the batched HABF query: starts at
  /// `entry_cell`, and `value_of(fn)` returns the raw value of family
  /// function `fn` on the key (reduced mod ω to the next cell). A caller
  /// holding the key's digests steps without hashing the key again.
  template <typename ValueOf>
  bool Walk(size_t entry_cell, ValueOf&& value_of, uint8_t* fns,
            size_t n) const {
    assert(n >= 1);
    size_t cell = entry_cell;
    for (size_t i = 0;; ++i) {
      const Cell c = ReadCell(cell);
      if (c.hashindex == 0) return false;
      const uint8_t fn = static_cast<uint8_t>(c.hashindex - 1);
      if (fn >= num_functions_) return false;
      fns[i] = fn;
      // The n-th cell ends the walk: its endbit is the answer, and the cell
      // its function would address next is never read.
      if (i + 1 == n) return c.endbit;
      cell = CellOf(value_of(fn));
    }
  }

  /// The cell a key's chain starts at: the dedicated function f, mod ω.
  size_t EntryCell(std::string_view key) const {
    return CellOf(provider_->EntryValue(key, f_seed_));
  }

  /// The cell a raw family (or entry) value addresses: value mod ω.
  size_t CellOf(uint64_t value) const {
    return static_cast<size_t>(value % num_cells_);
  }

  /// Seed of the entry function f (what HashProvider::EntryValue takes).
  uint64_t f_seed() const { return f_seed_; }

  /// Number of keys committed so far (the t of the Fh <= t/ω bound).
  size_t num_inserted() const { return num_inserted_; }

  size_t num_cells() const { return num_cells_; }
  unsigned cell_bits() const { return cell_bits_; }

  /// Largest function index storable in a cell: 2^(cell_bits-1) - 2.
  size_t max_function_index() const { return (size_t{1} << (cell_bits_ - 1)) - 2; }

  /// Fraction of non-empty cells (diagnostic).
  double FillRatio() const;

  size_t MemoryUsageBytes() const { return cells_.MemoryUsageBytes(); }

  /// Read access to the packed cell array (serialization, tests).
  const BitVector& cells() const { return cells_; }

  /// Restores cell contents and the inserted-key count (deserialization);
  /// false on a word count mismatch.
  bool LoadCells(std::vector<uint64_t> words, size_t num_inserted) {
    if (!cells_.LoadWords(std::move(words))) return false;
    num_inserted_ = num_inserted;
    return true;
  }

 private:
  struct Cell {
    bool endbit;
    uint8_t hashindex;  // 0 = empty
  };

  Cell ReadCell(size_t idx) const {
    const uint64_t raw = cells_.GetField(idx * cell_bits_, cell_bits_);
    return {(raw & 1u) != 0, static_cast<uint8_t>(raw >> 1)};
  }

  void WriteCell(size_t idx, bool endbit, uint8_t hashindex) {
    cells_.SetField(idx * cell_bits_, cell_bits_,
                    (static_cast<uint64_t>(hashindex) << 1) |
                        (endbit ? 1u : 0u));
  }

  size_t NextCell(std::string_view key, uint8_t fn) const {
    return CellOf(provider_->Value(key, fn));
  }

  // Depth-first search over storage orders; keeps the best (max overlap)
  // feasible plan in `best`. `node_budget` caps the number of visited
  // states: k! orders are explored exhaustively for small k, truncated (best
  // plan so far wins) for large k, keeping Plan() O(1) in practice.
  void PlanDfs(std::string_view key, size_t cell, uint32_t remaining_mask,
               const uint8_t* fns, size_t n,
               std::vector<std::pair<uint32_t, uint8_t>>& writes, int overlap,
               int* node_budget, InsertPlan* best) const;

  size_t num_cells_;
  unsigned cell_bits_;
  const HashProvider* provider_;
  size_t num_functions_;  // provider_->NumFunctions(), read by every walk
  uint64_t f_seed_;
  size_t num_inserted_ = 0;
  BitVector cells_;
};

}  // namespace habf
