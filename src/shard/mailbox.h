// Lock-free per-pair mailboxes for the sharded engine.
//
// The grid holds one (outbox, inbox) vector pair per ordered shard pair.
// Synchronization is structural, not atomic:
//
//   - during an epoch, pair (s, d)'s outbox has exactly one writer — the
//     task running shard s — so appends need no lock;
//   - at the epoch barrier the main thread (after ThreadPool::ParallelFor's
//     join, which provides the happens-before edge) swaps every pair's
//     outbox into its inbox;
//   - at the start of the next epoch, shard d's task drains every (·, d)
//     inbox — again a single reader per vector.
//
// No mutexes, no atomics, no allocation in the steady state (swap recycles
// vector capacity). The conservative-lookahead contract is enforced at the
// door: Send aborts if a message's delivery time does not clear the epoch
// bound, because such a message could be delivered into a shard's past.
//
// Drain returns each destination shard's messages sorted by
// (deliver, src cluster, seq) — a total order every partition agrees on —
// so delivery scheduling is canonical and the engine stays byte-identical
// across shard counts.
#pragma once

#include <cstdint>
#include <numeric>
#include <vector>

#include "shard/message.h"

namespace tango::shard {

class MailboxGrid {
 public:
  explicit MailboxGrid(int num_shards);

  int num_shards() const { return num_shards_; }

  /// Set the current epoch bound; messages sent during the epoch must
  /// deliver strictly after it. Called by the engine (main thread) before
  /// the shard tasks launch.
  void BeginEpoch(SimTime bound) { bound_ = bound; }

  /// Append a message to the (src, dst) outbox. Single-writer: only the
  /// task currently running shard `src` may call this. Aborts when the
  /// message violates the lookahead (deliver <= epoch bound).
  void Send(int src, int dst, const ShardMessage& msg);

  /// Barrier step (main thread): move every outbox into its inbox. Any
  /// message still sitting in an inbox (undelivered from a previous
  /// exchange) is kept in front of the newly arrived ones — in practice
  /// Drain empties inboxes every epoch, so this is belt and braces.
  void Exchange();

  /// Move every (·, dst) inbox into `sink`, sorted by (deliver, src
  /// cluster, seq). Single-reader: only the task currently running shard
  /// `dst` may call this. `sink` is cleared first.
  void Drain(int dst, std::vector<ShardMessage>& sink);

  /// True when every outbox and inbox is empty (used by the engine's
  /// skip-ahead: with all mailboxes drained, the next event time alone
  /// bounds the next epoch).
  bool Empty() const;

  /// Earliest delivery time across every pending (exchanged or outgoing)
  /// message, or INT64_MAX when all mailboxes are empty. The engine folds
  /// this into its next-event scan: an in-flight message is a future event
  /// that lives in no simulator heap, and a fast-forward that leapt past
  /// its delivery time would schedule it into the destination shard's
  /// past. Bursty open-loop sources (storm scenarios) leave clusters
  /// quiet for whole lookahead windows, which is exactly when that skip
  /// would otherwise happen.
  SimTime MinPendingDeliver() const;

  /// Messages moved out of outboxes by Exchange so far.
  std::int64_t exchanged() const { return exchanged_; }
  /// Messages handed to shard tasks by Drain so far. At quiescence
  /// exchanged() == drained(); the engine audits the difference. Read it
  /// only between epochs: the per-shard counts are written by the shard
  /// tasks.
  std::int64_t drained() const {
    return std::accumulate(drained_.begin(), drained_.end(),
                           std::int64_t{0});
  }

 private:
  struct Pair {
    std::vector<ShardMessage> out;
    std::vector<ShardMessage> in;
  };
  Pair& At(int src, int dst) {
    return pairs_[static_cast<std::size_t>(src) *
                      static_cast<std::size_t>(num_shards_) +
                  static_cast<std::size_t>(dst)];
  }
  const Pair& At(int src, int dst) const {
    return pairs_[static_cast<std::size_t>(src) *
                      static_cast<std::size_t>(num_shards_) +
                  static_cast<std::size_t>(dst)];
  }

  int num_shards_ = 1;
  SimTime bound_ = 0;
  std::int64_t exchanged_ = 0;
  /// Messages drained per destination shard. Shard tasks drain in
  /// parallel, so each count has exactly one writer: that shard's task.
  std::vector<std::int64_t> drained_;
  std::vector<Pair> pairs_;
};

}  // namespace tango::shard
