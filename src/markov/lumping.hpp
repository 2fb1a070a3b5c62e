// Ordinary (strong) lumpability for rewarded CTMCs.
//
// A partition {B_1, ..., B_K} of the state space is ordinarily lumpable
// when for every pair of blocks B != C the aggregate rate q(s, C) =
// sum_{u in C} q(s, u) is the same for every s in B. The aggregated
// process on blocks is then itself a CTMC — for EVERY initial
// distribution — with block-to-block rates equal to those shared
// aggregates (Kemeny & Snell). If additionally the reward rate is
// constant on each block, both of the paper's measures are preserved
// exactly: TRR(t) and MRR(t) of the lumped rewarded chain equal those of
// the original, to the last bit of the underlying theory (the solvers'
// eps-bounds then apply unchanged on the smaller chain).
//
// lump_model() computes the COARSEST such partition that also keeps
// rewards block-constant, by partition refinement: start from blocks of
// equal reward, then split every block whose members disagree on their
// aggregate rates into the current blocks, round after round, until no
// block splits. Each per-block aggregate is summed over that block's rates
// in ascending order, so states whose rates form the same multiset of
// doubles get bit-identical sums and block membership never hinges on
// summation order. A round re-signs only the blocks that can split: those
// that split in the round before and those holding a predecessor of one of
// their members (a state whose own block and successors' blocks did not
// change keeps its signature). The rounds compute exactly the partitions
// a full re-signing would, so the result does not depend on this
// bookkeeping. Cost: O(nnz log deg) set-up (rows sorted by rate, a
// transpose index); per round O(deg log deg) per re-signed state plus the
// in-degree of the members of the blocks that split; the number of rounds
// is at most the number of blocks. The fixpoint satisfies the lumpability
// condition by construction, so the pass is exact for ANY input chain — a
// model with no symmetry simply comes back with one block per state (no
// reduction, no harm). On the generator families (markov/generator.hpp)
// whose groups are exchangeable, the reduction is combinatorial: a k-of-n
// fleet of g identical groups collapses from (n+1)^g ordered tuples to the
// C(n+g, g) multisets — orders of magnitude at the sizes this library
// targets.
//
// Everything here is deterministic (blocks are numbered by their smallest
// original state), which the study subsystem relies on: remote workers
// re-expand and re-lump a generated model from its spec and must land on
// the byte-identical chain.
#pragma once

#include <vector>

#include "io/model_format.hpp"
#include "markov/ctmc.hpp"

namespace rrl {

/// The outcome of a lumping pass.
struct LumpResult {
  /// The lumped rewarded chain. Rewards are the (block-constant) original
  /// rewards; the initial distribution is summed per block; a regenerative
  /// hint is mapped to its block. pre_lump_states records the original
  /// state count; spec_key is left empty — a lumped chain is different
  /// content, so a caller that wants spec-based hashing must stamp a spec
  /// that names the lumping (the generator's `lump=1` does).
  ModelFile lumped;
  /// block_of[s] = lumped state of original state s.
  std::vector<index_t> block_of;
  /// Number of states before lumping (== block_of.size()).
  index_t original_states = 0;

  [[nodiscard]] index_t lumped_states() const noexcept {
    return lumped.chain.num_states();
  }
};

/// Lump `model` over its coarsest reward-preserving ordinarily-lumpable
/// partition. Exact for every input (worst case: no reduction). The input
/// is not modified.
[[nodiscard]] LumpResult lump_model(const ModelFile& model);

}  // namespace rrl
