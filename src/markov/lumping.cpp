#include "markov/lumping.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>

#include "support/contracts.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace rrl {
namespace {

metrics::Counter& signatures_counter() {
  static metrics::Counter& c = metrics::counter("rrl_lump_signatures_total");
  return c;
}

// One (target block, aggregate rate) pair of a signature.
struct SigEntry {
  index_t block = 0;
  double sum = 0.0;
};

// A signed state: its signature is arena[begin, begin + len), sorted by
// block; `group` numbers the distinct signatures within the block.
struct Signed {
  std::uint64_t hash = 0;
  index_t state = 0;
  std::uint32_t begin = 0;
  std::uint32_t len = 0;
  index_t group = 0;
};

// Sort signature entries by block.
void insertion_sort(std::vector<SigEntry>::iterator first,
                    std::vector<SigEntry>::iterator last) {
  if (first == last) return;
  for (auto it = first + 1; it < last; ++it) {
    const SigEntry entry = *it;
    auto hole = it;
    for (; hole != first && (hole - 1)->block > entry.block; --hole) {
      *hole = *(hole - 1);
    }
    *hole = entry;
  }
}

// A group of states split off a block, at order[start, start + len).
struct Piece {
  index_t block = 0;
  index_t start = 0;
  index_t len = 0;
};

// Partition refinement that re-signs only the blocks whose signatures can
// have changed since the previous round.
//
// A state's signature under partition P is its block plus the aggregate
// rate into every OTHER block (ordinary lumpability places no condition on
// intra-block rates). Each block's aggregate adds that block's rates in
// ascending order, starting from 0.0, so two states whose rates into a
// block form the same multiset of doubles get bit-identical sums. Rows are
// reordered by ascending rate once, so a single pass over a row produces
// every block's sum in that order.
//
// Round i maps P_i to P_{i+1}, the classes of equal signature under P_i.
// A state's signature can change only if its own block, or the block of a
// successor, split in round i-1. Such a state never shares a block with a
// state whose signature cannot change: the members of a block B that did
// not split had equal signatures in round i-1, so they had rates into the
// same blocks, and if one of them has a rate into a piece of a block that
// split, each of them has a rate into one of its pieces. A round therefore
// re-signs whole blocks — those that split, and those holding a
// predecessor of a member of one — and moves every signature group but
// the first into a new block. The result is P_{i+1} exactly, round by
// round, without the "all but the largest piece" shortcut of Hopcroft-style
// refinement: that derives q(s, B \ C) as q(s, B) - q(s, C), which sorted
// double sums do not satisfy bit for bit.
class Refiner {
 public:
  Refiner(const CsrMatrix& rates, std::vector<index_t>& block_of,
          index_t num_blocks)
      : n_(static_cast<index_t>(block_of.size())),
        block_of_(block_of),
        num_blocks_(num_blocks),
        row_ptr_(rates.row_ptr()),
        slot_(static_cast<std::size_t>(n_), 0) {
    // Signature offsets are 32-bit.
    RRL_EXPECTS(rates.col_idx().size() <= UINT32_MAX);
    build_rows(rates);
    build_predecessors(rates);
    build_members();
  }

  // Refine to the fixpoint; returns the number of blocks.
  index_t run() {
    std::vector<index_t> split(static_cast<std::size_t>(num_blocks_));
    for (index_t b = 0; b < num_blocks_; ++b) {
      split[static_cast<std::size_t>(b)] = b;
    }
    while (!split.empty()) {
      queue_blocks(split);
      split.clear();
      pieces_.clear();
      for (const index_t b : queue_) {
        group_block(b);
        queued_[static_cast<std::size_t>(b)] = 0;
      }
      queue_.clear();
      apply_pieces(split);
    }
    return num_blocks_;
  }

  [[nodiscard]] std::uint64_t signed_states() const noexcept {
    return signed_;
  }

 private:
  [[nodiscard]] index_t size_of(index_t b) const {
    return end_[static_cast<std::size_t>(b)] -
           begin_[static_cast<std::size_t>(b)];
  }

  // Rows reordered by ascending rate, ties kept in column order.
  void build_rows(const CsrMatrix& rates) {
    const auto col_idx = rates.col_idx();
    const auto values = rates.values();
    col_.assign(col_idx.begin(), col_idx.end());
    rate_.assign(values.begin(), values.end());
    std::vector<std::pair<double, index_t>> row;
    for (index_t s = 0; s < n_; ++s) {
      const auto lo = static_cast<std::size_t>(
          row_ptr_[static_cast<std::size_t>(s)]);
      const auto hi = static_cast<std::size_t>(
          row_ptr_[static_cast<std::size_t>(s) + 1]);
      if (hi - lo < 2) continue;
      row.clear();
      for (std::size_t k = lo; k < hi; ++k) row.emplace_back(rate_[k], col_[k]);
      // Columns are unique within a row, so (rate, column) order is the
      // stable-by-column rate order.
      std::sort(row.begin(), row.end());
      for (std::size_t k = lo; k < hi; ++k) {
        rate_[k] = row[k - lo].first;
        col_[k] = row[k - lo].second;
      }
    }
  }

  // Transpose index: pred_[pred_ptr_[u], pred_ptr_[u + 1]) are the states
  // with a rate into u.
  void build_predecessors(const CsrMatrix& rates) {
    const auto col_idx = rates.col_idx();
    pred_ptr_.assign(static_cast<std::size_t>(n_) + 1, 0);
    for (const index_t u : col_idx) ++pred_ptr_[static_cast<std::size_t>(u) + 1];
    for (std::size_t u = 0; u < static_cast<std::size_t>(n_); ++u) {
      pred_ptr_[u + 1] += pred_ptr_[u];
    }
    pred_.resize(col_idx.size());
    std::vector<std::int64_t> fill(pred_ptr_.begin(), pred_ptr_.end() - 1);
    for (index_t s = 0; s < n_; ++s) {
      for (std::int64_t k = row_ptr_[static_cast<std::size_t>(s)];
           k < row_ptr_[static_cast<std::size_t>(s) + 1]; ++k) {
        const auto u = static_cast<std::size_t>(
            col_idx[static_cast<std::size_t>(k)]);
        pred_[static_cast<std::size_t>(fill[u]++)] = s;
      }
    }
  }

  // Members of each block as a contiguous range order_[begin_, end_).
  void build_members() {
    const auto n = static_cast<std::size_t>(n_);
    begin_.assign(n, 0);
    end_.assign(n, 0);
    queued_.assign(n, 0);
    order_.resize(n);
    for (const index_t b : block_of_) ++end_[static_cast<std::size_t>(b)];
    index_t offset = 0;
    for (std::size_t b = 0; b < static_cast<std::size_t>(num_blocks_); ++b) {
      begin_[b] = offset;
      offset += end_[b];
      end_[b] = begin_[b];
    }
    for (index_t s = 0; s < n_; ++s) {
      const auto b = static_cast<std::size_t>(block_of_[static_cast<std::size_t>(s)]);
      order_[static_cast<std::size_t>(end_[b]++)] = s;
    }
  }

  // Queue the blocks that split and the blocks of their members'
  // predecessors. A singleton cannot split: it is marked queued for good
  // and never signed.
  void queue_blocks(const std::vector<index_t>& split) {
    for (const index_t b : split) {
      queued_[static_cast<std::size_t>(b)] = 1;
      if (size_of(b) > 1) queue_.push_back(b);
    }
    for (const index_t b : split) {
      for (index_t j = begin_[static_cast<std::size_t>(b)];
           j < end_[static_cast<std::size_t>(b)]; ++j) {
        const auto u = static_cast<std::size_t>(order_[static_cast<std::size_t>(j)]);
        for (std::int64_t k = pred_ptr_[u]; k < pred_ptr_[u + 1]; ++k) {
          const index_t p = block_of_[static_cast<std::size_t>(
              pred_[static_cast<std::size_t>(k)])];
          if (queued_[static_cast<std::size_t>(p)] == 0) {
            queued_[static_cast<std::size_t>(p)] = 1;
            queue_.push_back(p);
          }
        }
      }
    }
  }

  // Append s's signature to the arena (block_of_ is still P_i here).
  void sign(index_t s, index_t own) {
    const auto begin = static_cast<std::uint32_t>(arena_.size());
    for (std::int64_t k = row_ptr_[static_cast<std::size_t>(s)];
         k < row_ptr_[static_cast<std::size_t>(s) + 1]; ++k) {
      const index_t b =
          block_of_[static_cast<std::size_t>(col_[static_cast<std::size_t>(k)])];
      if (b == own) continue;
      // slot_[b] is b's entry in this signature iff it lies past `begin`
      // and names b; anything else is left over from an earlier one.
      std::size_t& slot = slot_[static_cast<std::size_t>(b)];
      if (slot < begin || slot >= arena_.size() || arena_[slot].block != b) {
        slot = arena_.size();
        arena_.push_back({b, 0.0});
      }
      arena_[slot].sum += rate_[static_cast<std::size_t>(k)];
    }
    // Sort by block; most rows are short enough for insertion sort.
    const auto first = arena_.begin() + begin;
    if (arena_.end() - first > 16) {
      std::sort(first, arena_.end(), [](const SigEntry& x, const SigEntry& y) {
        return x.block < y.block;
      });
    } else {
      insertion_sort(first, arena_.end());
    }
    std::uint64_t h = 0x9E3779B97F4A7C15ULL;
    for (auto it = first; it != arena_.end(); ++it) {
      h = (h ^ static_cast<std::uint32_t>(it->block)) * 0xFF51AFD7ED558CCDULL;
      h = (h ^ std::bit_cast<std::uint64_t>(it->sum)) * 0xC4CEB9FE1A85EC53ULL;
      h ^= h >> 29;
    }
    signed_list_.push_back(
        {h, s, begin, static_cast<std::uint32_t>(arena_.size()) - begin, 0});
  }

  // Signatures compare bitwise: sums are positive finite, so bit equality
  // is double equality.
  [[nodiscard]] bool same(const Signed& a, const Signed& b) const {
    if (a.hash != b.hash || a.len != b.len) return false;
    for (std::uint32_t i = 0; i < a.len; ++i) {
      const SigEntry& x = arena_[a.begin + i];
      const SigEntry& y = arena_[b.begin + i];
      if (x.block != y.block || std::bit_cast<std::uint64_t>(x.sum) !=
                                    std::bit_cast<std::uint64_t>(y.sum)) {
        return false;
      }
    }
    return true;
  }

  // Number the distinct signatures in signed_list_ by first occurrence
  // (open addressing on the hash) and count the members of each.
  void number_groups() {
    std::size_t cap = 2;
    while (cap < 2 * signed_list_.size()) cap *= 2;
    if (table_.size() < cap) table_.resize(cap);
    std::fill_n(table_.begin(), cap, -1);
    group_size_.clear();
    for (std::size_t i = 0; i < signed_list_.size(); ++i) {
      Signed& x = signed_list_[i];
      for (std::size_t at = x.hash & (cap - 1);; at = (at + 1) & (cap - 1)) {
        const index_t head = table_[at];
        if (head < 0) {
          table_[at] = static_cast<index_t>(i);
          x.group = static_cast<index_t>(group_size_.size());
          group_size_.push_back(0);
          break;
        }
        if (same(signed_list_[static_cast<std::size_t>(head)], x)) {
          x.group = signed_list_[static_cast<std::size_t>(head)].group;
          break;
        }
      }
      ++group_size_[static_cast<std::size_t>(x.group)];
    }
  }

  // Sign every member of block b and group them. If they differ, lay the
  // block's range out as [groups 1.., group 0] and record groups 1.. as
  // pieces; block_of_ is not touched until every block of the round is
  // grouped.
  void group_block(index_t b) {
    const auto bs = static_cast<std::size_t>(b);
    arena_.clear();
    signed_list_.clear();
    for (index_t j = begin_[bs]; j < end_[bs]; ++j) {
      sign(order_[static_cast<std::size_t>(j)], b);
    }
    signed_ += signed_list_.size();
    number_groups();
    if (group_size_.size() == 1) return;
    // group_size_ becomes each group's next slot in order_.
    index_t cursor = begin_[bs];
    for (std::size_t g = 1; g < group_size_.size(); ++g) {
      const index_t len = group_size_[g];
      pieces_.push_back({b, cursor, len});
      group_size_[g] = cursor;
      cursor += len;
    }
    group_size_[0] = cursor;
    for (const Signed& x : signed_list_) {
      order_[static_cast<std::size_t>(
          group_size_[static_cast<std::size_t>(x.group)]++)] = x.state;
    }
  }

  // Give every piece a fresh block id, shrink its parent block, and list
  // the parent and its pieces as the blocks that split this round.
  void apply_pieces(std::vector<index_t>& split) {
    for (std::size_t i = 0; i < pieces_.size(); ++i) {
      const Piece& p = pieces_[i];
      const index_t id = num_blocks_++;
      begin_[static_cast<std::size_t>(id)] = p.start;
      end_[static_cast<std::size_t>(id)] = p.start + p.len;
      for (index_t j = p.start; j < p.start + p.len; ++j) {
        block_of_[static_cast<std::size_t>(order_[static_cast<std::size_t>(j)])] = id;
      }
      begin_[static_cast<std::size_t>(p.block)] = p.start + p.len;
      if (i == 0 || pieces_[i - 1].block != p.block) split.push_back(p.block);
      split.push_back(id);
    }
  }

  const index_t n_;
  std::vector<index_t>& block_of_;
  index_t num_blocks_;
  std::span<const std::int64_t> row_ptr_;
  std::vector<index_t> col_;
  std::vector<double> rate_;
  std::vector<std::int64_t> pred_ptr_;
  std::vector<index_t> pred_;
  std::vector<index_t> order_, begin_, end_;
  // queued_[b]: b is queued this round, or is a singleton (never queued).
  std::vector<unsigned char> queued_;
  std::vector<index_t> queue_;
  // slot_[b]: where block b's entry of the signature being built sits.
  std::vector<std::size_t> slot_;
  std::vector<SigEntry> arena_;
  std::vector<Signed> signed_list_;
  std::vector<index_t> table_;       // open-addressed group heads
  std::vector<index_t> group_size_;  // per group: size, then next slot
  std::vector<Piece> pieces_;
  std::uint64_t signed_ = 0;
};

// Aggregate `pairs` ((target block, rate), unsorted, possibly duplicated
// blocks) into sorted per-block sums, dropping `own`.
void aggregate(std::vector<std::pair<index_t, double>>& pairs, index_t own,
               std::vector<std::pair<index_t, double>>& out) {
  std::sort(pairs.begin(), pairs.end());
  out.clear();
  for (std::size_t i = 0; i < pairs.size();) {
    const index_t block = pairs[i].first;
    double sum = 0.0;
    for (; i < pairs.size() && pairs[i].first == block; ++i) {
      sum += pairs[i].second;
    }
    if (block != own) out.emplace_back(block, sum);
  }
}

}  // namespace

LumpResult lump_model(const ModelFile& model) {
  trace::Span span("lump");
  const index_t n = model.chain.num_states();
  RRL_EXPECTS(static_cast<index_t>(model.rewards.size()) == n);
  RRL_EXPECTS(static_cast<index_t>(model.initial.size()) == n);
  const CsrMatrix& rates = model.chain.rates();
  const auto row_ptr = rates.row_ptr();
  const auto col_idx = rates.col_idx();
  const auto values = rates.values();

  LumpResult result;
  result.original_states = n;
  result.block_of.assign(static_cast<std::size_t>(n), 0);

  // Initial partition: states of bit-identical reward, blocks numbered by
  // first occurrence (the reward vector is part of the measure, so it must
  // be constant on every block from the start).
  index_t num_blocks = 0;
  {
    std::unordered_map<std::uint64_t, index_t> by_reward;
    for (index_t s = 0; s < n; ++s) {
      const std::uint64_t key = std::bit_cast<std::uint64_t>(
          model.rewards[static_cast<std::size_t>(s)]);
      const auto [it, inserted] = by_reward.emplace(key, num_blocks);
      if (inserted) ++num_blocks;
      result.block_of[static_cast<std::size_t>(s)] = it->second;
    }
  }

  // Refinement: split blocks by the aggregate-rate signature until no
  // block splits. The first round signs every state; each later round
  // signs the blocks that split in the round before and the blocks of
  // their members' predecessors. Set-up is O(nnz log deg); a round costs
  // O(deg log deg) per state it signs plus the in-degree of the members of
  // the blocks that split.
  {
    Refiner refiner(rates, result.block_of, num_blocks);
    num_blocks = refiner.run();
    signatures_counter().add(refiner.signed_states());
    span.set_arg(refiner.signed_states());
  }

  // Canonical numbering: blocks by their smallest member.
  {
    std::vector<index_t> relabel(static_cast<std::size_t>(num_blocks), -1);
    index_t next = 0;
    for (index_t& b : result.block_of) {
      index_t& to = relabel[static_cast<std::size_t>(b)];
      if (to < 0) to = next++;
      b = to;
    }
  }

  // Assemble the lumped chain from one representative per block (the
  // block's smallest state). The fixpoint guarantees every member would
  // produce the same aggregates, bit for bit.
  std::vector<index_t> representative(static_cast<std::size_t>(num_blocks),
                                      -1);
  for (index_t s = 0; s < n; ++s) {
    const index_t b = result.block_of[static_cast<std::size_t>(s)];
    if (representative[static_cast<std::size_t>(b)] < 0) {
      representative[static_cast<std::size_t>(b)] = s;
    }
  }

  std::vector<Triplet> lumped_rates;
  std::vector<std::pair<index_t, double>> scratch;
  std::vector<std::pair<index_t, double>> out;
  for (index_t b = 0; b < num_blocks; ++b) {
    const index_t rep = representative[static_cast<std::size_t>(b)];
    scratch.clear();
    for (std::int64_t k = row_ptr[static_cast<std::size_t>(rep)];
         k < row_ptr[static_cast<std::size_t>(rep) + 1]; ++k) {
      scratch.emplace_back(
          result.block_of[static_cast<std::size_t>(
              col_idx[static_cast<std::size_t>(k)])],
          values[static_cast<std::size_t>(k)]);
    }
    aggregate(scratch, b, out);
    for (const auto& [target, sum] : out) {
      lumped_rates.push_back({b, target, sum});
    }
  }

  ModelFile& lumped = result.lumped;
  lumped.chain = Ctmc::from_transitions(num_blocks, std::move(lumped_rates));
  lumped.rewards.resize(static_cast<std::size_t>(num_blocks));
  for (index_t b = 0; b < num_blocks; ++b) {
    lumped.rewards[static_cast<std::size_t>(b)] =
        model.rewards[static_cast<std::size_t>(
            representative[static_cast<std::size_t>(b)])];
  }
  lumped.initial.assign(static_cast<std::size_t>(num_blocks), 0.0);
  for (index_t s = 0; s < n; ++s) {
    lumped.initial[static_cast<std::size_t>(
        result.block_of[static_cast<std::size_t>(s)])] +=
        model.initial[static_cast<std::size_t>(s)];
  }
  if (model.regenerative >= 0) {
    lumped.regenerative =
        result.block_of[static_cast<std::size_t>(model.regenerative)];
  }
  lumped.pre_lump_states = n;
  return result;
}

}  // namespace rrl
