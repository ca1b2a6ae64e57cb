// k-way merge on a tournament loser tree.
//
// The classic external-merge structure: a complete binary tree whose leaves
// are the k input sources; each internal node remembers the *loser* of the
// match played there and the overall winner sits above the root. Emitting
// the winner and replaying its leaf-to-root path costs exactly ceil(log2 k)
// comparisons — against a binary heap's pop+push this halves the compare
// count and touches one fixed path instead of sifting, which is what makes
// the streaming trace merge (trace::MultiTraceStream) cheap even with one
// comparator call per request.
//
// The tree orders *source indices*: the caller's comparator looks up each
// source's current head element. The comparator must be a strict total
// order over live sources — tie-break on the source index (that is also
// what makes the merge deterministic) — and must rank exhausted sources
// after every live one.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace starcdn::util {

/// Tournament tree over `k` sources. `less(a, b)` returns true when source
/// a's head must be emitted before source b's; it is re-evaluated on every
/// replay, so it must read the sources' *current* heads.
template <typename Less>
class LoserTree {
 public:
  LoserTree(std::size_t k, Less less) : k_(k), less_(std::move(less)) {
    rebuild();
  }

  [[nodiscard]] std::size_t size() const noexcept { return k_; }

  /// Source holding the globally smallest head (undefined when k == 0;
  /// when every source is exhausted it names an exhausted one — the caller
  /// tracks the remaining element count).
  [[nodiscard]] std::size_t winner() const noexcept { return winner_; }

  /// Call after consuming the winner's head (advancing or exhausting that
  /// source): replays the winner's leaf-to-root path in O(log k).
  void replayed() {
    if (k_ < 2) return;
    std::size_t cand = winner_;
    for (std::size_t node = (k_ + winner_) / 2; node >= 1; node /= 2) {
      if (less_(tree_[node], cand)) std::swap(tree_[node], cand);
    }
    winner_ = cand;
  }

  /// Full O(k) rebuild — used at construction and whenever the caller
  /// swaps out the underlying sources wholesale (e.g. a new merge window).
  void rebuild() {
    winner_ = 0;
    if (k_ < 2) return;
    // win[] is the match winner at each node; leaves k..2k-1 hold the
    // sources, internal node j plays win[2j] vs win[2j+1] and stores the
    // loser in tree_[j]. Heap indexing works for any k, not just powers of
    // two: every index in 2..2k-1 is either internal (< k) or a leaf.
    std::vector<std::size_t> win(2 * k_);
    for (std::size_t s = 0; s < k_; ++s) win[k_ + s] = s;
    tree_.assign(k_, 0);
    for (std::size_t node = k_ - 1; node >= 1; --node) {
      const std::size_t a = win[2 * node];
      const std::size_t b = win[2 * node + 1];
      const bool a_wins = !less_(b, a);
      win[node] = a_wins ? a : b;
      tree_[node] = a_wins ? b : a;
    }
    winner_ = win[1];
  }

 private:
  std::size_t k_;
  Less less_;
  std::size_t winner_ = 0;
  std::vector<std::size_t> tree_;  // loser stored at each internal node
};

}  // namespace starcdn::util
