#include "dl/epoch.hpp"

namespace dl::core {

DLEpoch::DLEpoch(std::uint64_t epoch, int n, int f, int self,
                 const ba::CommonCoin& coin)
    : epoch_(epoch), n_(n), vid_noted_(static_cast<std::size_t>(n), false),
      ba_out_(static_cast<std::size_t>(n), -1) {
  vids_.reserve(static_cast<std::size_t>(n));
  bas_.reserve(static_cast<std::size_t>(n));
  const vid::Params p{n, f};
  for (int i = 0; i < n; ++i) {
    vids_.emplace_back(p, self);
    const auto inst = static_cast<std::uint32_t>(i);
    bas_.emplace_back(n, f, self, [&coin, epoch, inst](std::uint32_t round) {
      return coin.flip(epoch, inst, round);
    });
  }
}

bool DLEpoch::refresh_ba_outputs() {
  bool changed = false;
  for (int i = 0; i < n_; ++i) {
    if (ba_out_[static_cast<std::size_t>(i)] != -1) continue;
    const auto& ba = bas_[static_cast<std::size_t>(i)];
    if (!ba.decided()) continue;
    ba_out_[static_cast<std::size_t>(i)] = ba.output() ? 1 : 0;
    ++decided_count_;
    if (ba.output()) ++one_count_;
    changed = true;
  }
  if (changed && decided_count_ == n_ && commit_set_.empty()) {
    for (int i = 0; i < n_; ++i) {
      if (ba_out_[static_cast<std::size_t>(i)] == 1) commit_set_.push_back(i);
    }
  }
  return changed;
}

bool DLEpoch::settled() const {
  for (int i = 0; i < n_; ++i) {
    if (!bas_[static_cast<std::size_t>(i)].halted() ||
        !vids_[static_cast<std::size_t>(i)].served_every_peer(i)) {
      return false;
    }
  }
  return true;
}

}  // namespace dl::core
