#include "shard/mailbox.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace tango::shard {

const char* MsgKindName(MsgKind kind) {
  switch (kind) {
    case MsgKind::kLcTransfer:
      return "lc-transfer";
    case MsgKind::kLcReject:
      return "lc-reject";
    case MsgKind::kLcResult:
      return "lc-result";
    case MsgKind::kLcLost:
      return "lc-lost";
    case MsgKind::kBeForward:
      return "be-forward";
    case MsgKind::kBeTransfer:
      return "be-transfer";
    case MsgKind::kBeBounce:
      return "be-bounce";
    case MsgKind::kBeResult:
      return "be-result";
    case MsgKind::kBeDrop:
      return "be-drop";
    case MsgKind::kStateDelta:
      return "state-delta";
    case MsgKind::kMasterDown:
      return "master-down";
    case MsgKind::kMasterUp:
      return "master-up";
    case MsgKind::kMasterNack:
      return "master-nack";
  }
  return "?";
}

MailboxGrid::MailboxGrid(int num_shards) : num_shards_(num_shards) {
  TANGO_CHECK(num_shards >= 1, "grid needs at least one shard");
  drained_.assign(static_cast<std::size_t>(num_shards), 0);
  pairs_.resize(static_cast<std::size_t>(num_shards) *
                static_cast<std::size_t>(num_shards));
}

void MailboxGrid::Send(int src, int dst, const ShardMessage& msg) {
  TANGO_CHECK(msg.deliver > bound_,
              "lookahead violation: %s %d->%d deliver=%lld bound=%lld",
              MsgKindName(msg.kind), msg.src.value, msg.dst.value,
              static_cast<long long>(msg.deliver),
              static_cast<long long>(bound_));
  TANGO_CHECK(msg.deliver >= msg.sent, "delivery before send");
  // TANGOVET_ALLOW_NEXT(amortized: pooled capacity)
  At(src, dst).out.push_back(msg);
}

void MailboxGrid::Exchange() {
  for (Pair& p : pairs_) {
    if (p.out.empty()) continue;
    exchanged_ += static_cast<std::int64_t>(p.out.size());
    if (p.in.empty()) {
      std::swap(p.in, p.out);
    } else {
      p.in.insert(p.in.end(), p.out.begin(), p.out.end());
      p.out.clear();
    }
  }
}

void MailboxGrid::Drain(int dst, std::vector<ShardMessage>& sink) {
  sink.clear();
  for (int src = 0; src < num_shards_; ++src) {
    Pair& p = At(src, dst);
    if (p.in.empty()) continue;
    drained_[static_cast<std::size_t>(dst)] +=
        static_cast<std::int64_t>(p.in.size());
    // TANGOVET_ALLOW_NEXT(amortized: pooled capacity)
    sink.insert(sink.end(), p.in.begin(), p.in.end());
    p.in.clear();
  }
  // (deliver, src cluster, seq) is a total order: seq is unique per source
  // cluster, so no two messages compare equal and plain sort is stable in
  // effect. Every partition sorts the same message set with the same key,
  // so the per-destination-cluster delivery order is partition-invariant.
  std::sort(sink.begin(), sink.end(),
            [](const ShardMessage& a, const ShardMessage& b) {
              if (a.deliver != b.deliver) return a.deliver < b.deliver;
              if (a.src != b.src) return a.src < b.src;
              return a.seq < b.seq;
            });
}

bool MailboxGrid::Empty() const {
  for (const Pair& p : pairs_) {
    if (!p.out.empty() || !p.in.empty()) return false;
  }
  return true;
}

SimTime MailboxGrid::MinPendingDeliver() const {
  SimTime min_deliver = std::numeric_limits<SimTime>::max();
  for (const Pair& p : pairs_) {
    for (const ShardMessage& m : p.out) {
      min_deliver = std::min(min_deliver, m.deliver);
    }
    for (const ShardMessage& m : p.in) {
      min_deliver = std::min(min_deliver, m.deliver);
    }
  }
  return min_deliver;
}

}  // namespace tango::shard
