// Per-epoch protocol state: N AVID-M server instances (one per proposer)
// and N binary-agreement instances, plus the bookkeeping the epoch protocol
// of §4.2 needs (which BAs got input, how many output 1, the commit set S_e,
// and this epoch's delivery progress).
//
// DLEpoch is deliberately passive — DlNode drives it — so the state can be
// inspected directly by tests.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ba/binary_agreement.hpp"
#include "ba/common_coin.hpp"
#include "vid/avid_m.hpp"

namespace dl::core {

class DLEpoch {
 public:
  DLEpoch(std::uint64_t epoch, int n, int f, int self, const ba::CommonCoin& coin);

  std::uint64_t epoch() const { return epoch_; }

  vid::AvidMServer& vid(int instance) { return vids_[static_cast<std::size_t>(instance)]; }
  ba::BinaryAgreement& ba(int instance) { return bas_[static_cast<std::size_t>(instance)]; }

  // Completion-edge detector: true exactly once, when `instance`'s VID is
  // complete and has not been noted before.
  bool note_vid_complete_once(int instance) {
    if (vid_noted_[static_cast<std::size_t>(instance)]) return false;
    if (!vids_[static_cast<std::size_t>(instance)].complete()) return false;
    vid_noted_[static_cast<std::size_t>(instance)] = true;
    return true;
  }

  // --- BA bookkeeping -------------------------------------------------
  bool ba_input_done(int instance) const {
    return bas_[static_cast<std::size_t>(instance)].has_input();
  }
  // Re-derives output counters after any BA handled a message. Returns true
  // if the set of decided instances changed.
  bool refresh_ba_outputs();
  int decided_count() const { return decided_count_; }
  int one_count() const { return one_count_; }
  bool all_ba_output() const { return decided_count_ == n_; }

  // Commit set S_e: indices whose BA output 1 (valid once all_ba_output()).
  const std::vector<int>& commit_set() const { return commit_set_; }

  // True once nothing further can happen here: every BA halted (its
  // messages are ignored) and every VID instance served each peer but its
  // proposer (no request is owed). DlNode retires settled epochs.
  bool settled() const;

  // --- delivery bookkeeping (driven by DlNode) -------------------------
  bool linked_computed = false;
  // Blocks from earlier epochs this epoch delivers via inter-node linking,
  // sorted by (epoch, node) at delivery time.
  std::vector<std::pair<std::uint64_t, int>> linked_blocks;

 private:
  std::uint64_t epoch_;
  int n_;
  std::vector<vid::AvidMServer> vids_;
  std::vector<ba::BinaryAgreement> bas_;
  std::vector<bool> vid_noted_;
  std::vector<std::int8_t> ba_out_;  // -1 undecided, else 0/1
  int decided_count_ = 0;
  int one_count_ = 0;
  std::vector<int> commit_set_;
};

}  // namespace dl::core
