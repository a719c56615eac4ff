#include "dl/node.hpp"

#include <algorithm>

#include "common/serial.hpp"
#include "obs/flight_recorder.hpp"
#include "storage/ledger_store.hpp"

namespace dl::core {

namespace {

// Byzantine peers could name absurd epochs to exhaust memory; cap how far
// past our own pipeline we are willing to instantiate state.
constexpr std::uint64_t kMaxEpochSkew = 4096;

// Catch-up: epochs served per round. Bounds both the server's work per
// request and how far past deliver_next_ the client accepts chunks, so one
// round's state stays small even against a flooding peer.
constexpr std::uint32_t kCatchUpWindow = 64;
// An epoch delivers its commit set plus linked blocks; anything claiming
// more blocks than this is garbage, not data.
constexpr std::uint32_t kMaxCatchUpBlocksPerEpoch = 4096;

bool is_vid_kind(MsgKind k) {
  return k == MsgKind::VidChunk || k == MsgKind::VidGotChunk ||
         k == MsgKind::VidReady || k == MsgKind::VidRequestChunk;
}

bool is_ba_kind(MsgKind k) {
  return k == MsgKind::BaBval || k == MsgKind::BaAux || k == MsgKind::BaDone;
}

}  // namespace

NodeConfig NodeConfig::dispersed_ledger(int n, int f, int self) {
  NodeConfig c;
  c.n = n;
  c.f = f;
  c.self = self;
  return c;
}

NodeConfig NodeConfig::dl_coupled(int n, int f, int self) {
  NodeConfig c = dispersed_ledger(n, f, self);
  c.coupled_proposals = true;
  return c;
}

NodeConfig NodeConfig::honey_badger(int n, int f, int self) {
  NodeConfig c = dispersed_ledger(n, f, self);
  c.vote_on_dispersal = false;
  c.inter_node_linking = false;
  c.repropose_dropped = true;
  return c;
}

NodeConfig NodeConfig::hb_link(int n, int f, int self) {
  NodeConfig c = dispersed_ledger(n, f, self);
  c.vote_on_dispersal = false;
  return c;
}

DlNode::DlNode(NodeConfig cfg, runtime::Env& env)
    : cfg_(cfg),
      env_(env),
      coin_(cfg.coin_seed),
      vid_params_{cfg.n, cfg.f},
      retrievals_(vid_params_, cfg.self),
      completed_prefix_(static_cast<std::size_t>(cfg.n), 0),
      completed_gaps_(static_cast<std::size_t>(cfg.n)),
      linked_scanned_(static_cast<std::size_t>(cfg.n), 0) {}

DLEpoch& DlNode::epoch_state(std::uint64_t e) {
  auto it = epochs_.find(e);
  if (it == epochs_.end()) {
    it = epochs_.try_emplace(e, e, cfg_.n, cfg_.f, cfg_.self, coin_).first;
  }
  return it->second;
}

// --- client interface -------------------------------------------------------

void DlNode::submit(Bytes payload) {
  Transaction tx;
  tx.submit_time = env_.now();
  tx.origin = static_cast<std::uint32_t>(cfg_.self);
  tx.payload = std::move(payload);
  input_queue_bytes_.fetch_add(tx.wire_size(), std::memory_order_relaxed);
  input_queue_.push_back(std::move(tx));
  maybe_propose();
}

void DlNode::start() {
  if (cfg_.catch_up_interval > 0 && !catch_up_timer_armed_) {
    catch_up_timer_armed_ = true;
    env_.after(cfg_.catch_up_interval, [this] { catch_up_tick(); });
  }
  maybe_propose();
}

// --- message plumbing --------------------------------------------------------

std::uint64_t DlNode::retrieval_tag(std::uint64_t epoch, std::uint32_t instance,
                                    int client) const {
  return ((epoch + 1) << 16) | (static_cast<std::uint64_t>(instance) << 8) |
         static_cast<std::uint64_t>(client);
}

runtime::SendOpts DlNode::classify(const Envelope& env, int to) const {
  runtime::SendOpts o;  // default: High — dispersal + agreement traffic
  switch (env.kind) {
    case MsgKind::VidRequestChunk:
      o.cls = runtime::TrafficClass::Low;
      o.order = env.epoch;
      break;
    case MsgKind::VidReturnChunk:
      o.cls = runtime::TrafficClass::Low;
      o.order = env.epoch;
      o.tag = retrieval_tag(env.epoch, env.instance, to);
      break;
    case MsgKind::CatchUpRequest:
    case MsgKind::CatchUpChunk:
    case MsgKind::CatchUpDone:
      // Historical data must never delay live dispersal/agreement (§5).
      o.cls = runtime::TrafficClass::Low;
      o.order = env.epoch;
      break;
    default:
      break;
  }
  return o;
}

void DlNode::flush(Outbox&& out, std::uint64_t epoch, std::uint32_t instance) {
  for (OutMsg& om : out) {
    om.env.epoch = epoch;
    om.env.instance = instance;
    // Every outbound protocol message funnels through here; tally the wire
    // counters centrally (one broadcast = one message per destination).
    const std::uint64_t fanout =
        om.to == OutMsg::kAll ? static_cast<std::uint64_t>(cfg_.n) : 1;
    if (om.env.kind == MsgKind::VidChunk || om.env.kind == MsgKind::FpChunk) {
      stats_.vid_chunks_sent += fanout;
    } else if (om.env.kind == MsgKind::VidReturnChunk ||
               om.env.kind == MsgKind::FpReturnChunk) {
      stats_.return_chunks_sent += fanout;
    } else if (is_ba_kind(om.env.kind)) {
      stats_.ba_msgs_sent += fanout;
    }
    if (om.to == OutMsg::kAll) {
      // Broadcast: one shared buffer to every node (including self). The
      // opts are computed before the move steals om.env's body.
      const runtime::SendOpts opts = classify(om.env, OutMsg::kAll);
      env_.broadcast(std::move(om.env), opts);
    } else {
      const runtime::SendOpts opts = classify(om.env, om.to);
      env_.send(om.to, std::move(om.env), opts);
    }
  }
}

// --- dispersal pipeline ------------------------------------------------------

bool DlNode::can_start_next_epoch() const {
  if (cfg_.fall_behind_stop > 0 &&
      deliver_next_ + static_cast<std::uint64_t>(cfg_.fall_behind_stop) <
          propose_epoch_) {
    return false;  // §4.5: too far behind on retrieval, stop proposing
  }
  if (propose_epoch_ == 0) return true;
  const std::uint64_t prev = propose_epoch_ - 1;
  if (prev < closed_floor_ || prev < retired_floor_) {
    // Epochs below the restore/catch-up floor were agreement-closed by the
    // cluster while we were down, and retired epochs were delivered; either
    // way the local DLEpoch state is gone and all_ba_output() would stay
    // false forever.
    return true;
  }
  if (cfg_.vote_on_dispersal) {
    // DispersedLedger: next dispersal may start once the previous epoch's
    // agreement phase is over (all BA instances Output) — retrieval is lazy.
    auto it = epochs_.find(prev);
    return it != epochs_.end() && it->second.all_ba_output();
  }
  // HoneyBadger: lockstep — next epoch only after the previous one is fully
  // downloaded and delivered.
  return deliver_next_ > prev;
}

void DlNode::maybe_propose() {
  if (!can_start_next_epoch()) return;
  const double now = env_.now();
  const bool size_ready =
      cfg_.backlog_tx_bytes > 0 ||
      input_queue_bytes_.load(std::memory_order_relaxed) >= cfg_.propose_size;
  const bool time_ready = now - last_propose_time_ >= cfg_.propose_delay;
  if (size_ready || time_ready) {
    propose_now();
    return;
  }
  // Nagle: wait out the remainder of the delay unless size triggers first.
  const double wait = cfg_.propose_delay - (now - last_propose_time_);
  if (wait <= 0 || now + wait <= now) {
    // A re-armed timer can fire an ulp short of its exact deadline, leaving a
    // sub-ulp remainder; re-arming with it would land at this same virtual
    // time and spin the event loop forever. Treat the remainder as elapsed.
    propose_now();
    return;
  }
  if (!propose_timer_armed_) {
    propose_timer_armed_ = true;
    env_.after(wait, [this] {
      propose_timer_armed_ = false;
      maybe_propose();
    });
  }
}

Block DlNode::build_block() {
  Block b;
  if (cfg_.inter_node_linking) {
    b.v_array = completed_prefix_;  // the observation V_i^e (§4.3)
  }
  // Proposing epoch e = propose_epoch_ - 1 (already advanced by the caller).
  // Retrieval inherently trails dispersal by one epoch (epoch e-1's blocks
  // only become retrievable when its BAs finish, which is when e starts), so
  // "up to date" means delivery lags by at most that one epoch. More lag =>
  // the node cannot have validated recent transactions.
  const bool behind = deliver_next_ + 2 < propose_epoch_;
  if (cfg_.coupled_proposals && behind) {
    // DL-Coupled spam defense: participate with an empty block while our
    // retrieval (hence tx validation ability) is behind.
    ++stats_.proposed_empty_blocks;
    return b;
  }
  if (cfg_.backlog_tx_bytes > 0) {
    // Infinite-backlog mode: synthesize a full block.
    std::size_t used = 0;
    while (used + cfg_.backlog_tx_bytes + 16 <= cfg_.max_block_bytes) {
      Transaction tx;
      tx.submit_time = env_.now();
      tx.origin = static_cast<std::uint32_t>(cfg_.self);
      tx.payload.assign(cfg_.backlog_tx_bytes, 0xA5);
      used += tx.wire_size();
      b.txs.push_back(std::move(tx));
    }
    return b;
  }
  std::size_t used = 0;
  while (!input_queue_.empty() &&
         used + input_queue_.front().wire_size() <= cfg_.max_block_bytes) {
    used += input_queue_.front().wire_size();
    input_queue_bytes_.fetch_sub(input_queue_.front().wire_size(),
                                 std::memory_order_relaxed);
    b.txs.push_back(std::move(input_queue_.front()));
    input_queue_.pop_front();
  }
  return b;
}

void DlNode::propose_now() {
  const std::uint64_t e = propose_epoch_++;
  last_propose_time_ = env_.now();
  note_activity(e + 1);
  Block b = build_block();
  if (cfg_.byz_lie_v_array) {
    // Claim every peer has dispersed 1000 epochs further than observed. The
    // (f+1)-th-largest rule must clip this to a correct node's observation.
    for (auto& v : b.v_array) v += 1000;
  }
  ++stats_.proposed_blocks;
  stats_.current_dispersal_epoch = propose_epoch_;
  if (flight_ != nullptr) {
    flight_->record(last_propose_time_, obs::FlightRecorder::Ev::kPropose, e,
                    static_cast<std::uint32_t>(cfg_.self));
  }

  if (cfg_.byz_inconsistent_blocks) {
    // Disperse chunks that are NOT a Reed-Solomon codeword (valid Merkle
    // proofs over garbage): every correct retriever must get BAD_UPLOADER.
    std::vector<Bytes> garbage;
    for (int i = 0; i < cfg_.n; ++i) {
      garbage.push_back(random_bytes(
          256, (e << 8) ^ static_cast<std::uint64_t>(i) ^ cfg_.coin_seed));
    }
    const MerkleTree tree(garbage);
    Outbox out;
    for (int i = 0; i < cfg_.n; ++i) {
      OutMsg m;
      m.to = i;
      m.env.kind = MsgKind::VidChunk;
      m.env.body = vid::ChunkMsg{tree.root(), garbage[static_cast<std::size_t>(i)],
                                 tree.prove(static_cast<std::uint32_t>(i))}
                       .encode();
      out.push_back(std::move(m));
    }
    flush(std::move(out), e, static_cast<std::uint32_t>(cfg_.self));
    return;
  }

  Bytes encoded = b.encode();
  own_blocks_.emplace(e, std::move(b));
  retrievals_.put_local(BlockKey{e, cfg_.self}, encoded);
  own_stages_[e].proposed = last_propose_time_;

  // Disperse(B) as the client of our own VID instance. The erasure encode
  // and Merkle build (one batched tree per block) are the CPU-heavy half of
  // proposing, so they go through the executor seam; both shipped Envs run
  // it inline. The work closure touches only value captures and immutable
  // config.
  auto enc = std::make_shared<const Bytes>(std::move(encoded));
  auto chunks = std::make_shared<std::vector<vid::ChunkMsg>>();
  env_.offload(
      [this, enc, chunks] { *chunks = avid_m_disperse(vid_params_, *enc); },
      [this, e, chunks] {
        Outbox out;
        for (int i = 0; i < cfg_.n; ++i) {
          OutMsg m;
          m.to = i;
          m.env.kind = MsgKind::VidChunk;
          m.env.body = (*chunks)[static_cast<std::size_t>(i)].encode();
          out.push_back(std::move(m));
        }
        flush(std::move(out), e, static_cast<std::uint32_t>(cfg_.self));
      });
}

// --- message handling --------------------------------------------------------

void DlNode::on_receive(int from, ByteView bytes) {
  const std::optional<EnvelopeView> env_opt = EnvelopeView::decode(bytes);
  if (!env_opt.has_value()) return;  // Byzantine noise
  const EnvelopeView& env = *env_opt;
  if (env.instance >= static_cast<std::uint32_t>(cfg_.n)) return;
  if (env.epoch > propose_epoch_ + kMaxEpochSkew &&
      env.epoch > deliver_next_ + kMaxEpochSkew) {
    return;  // absurd epoch (memory-exhaustion defense)
  }

  if (env.kind == MsgKind::VidChunk) {
    ++stats_.vid_chunks_received;
    if (flight_ != nullptr) {
      flight_->record(env_.now(), obs::FlightRecorder::Ev::kVidChunkRx,
                      env.epoch, env.instance,
                      static_cast<std::uint64_t>(from));
    }
  } else if (env.kind == MsgKind::VidReturnChunk) {
    ++stats_.return_chunks_received;
  } else if (is_ba_kind(env.kind)) {
    ++stats_.ba_msgs_received;
  } else if (env.kind == MsgKind::CatchUpRequest ||
             env.kind == MsgKind::CatchUpChunk ||
             env.kind == MsgKind::CatchUpDone) {
    ++stats_.catch_up_msgs_received;
  }

  if ((is_vid_kind(env.kind) || is_ba_kind(env.kind)) &&
      env.epoch < retired_floor_) {
    return;  // retired: counted above, nothing left to act on it
  }

  if (env.kind == MsgKind::VidReturnChunk) {
    handle_return_chunk(from, env);
  } else if (env.kind == MsgKind::VidCancel) {
    handle_cancel(from, env);
  } else if (is_vid_kind(env.kind)) {
    handle_vid_message(from, env);
  } else if (is_ba_kind(env.kind)) {
    handle_ba_message(from, env);
  } else if (env.kind == MsgKind::CatchUpRequest) {
    handle_catch_up_request(from, env);
  } else if (env.kind == MsgKind::CatchUpChunk) {
    handle_catch_up_chunk(from, env);
  } else if (env.kind == MsgKind::CatchUpDone) {
    handle_catch_up_done(from, env);
  }
  // Unknown kinds are dropped.
  retire_epochs();
}

void DlNode::handle_vid_message(int from, const EnvelopeView& env) {
  // Only node j may disperse into VID_j^e: drop impersonated Chunk messages
  // (§4.2 footnote 3).
  if (env.kind == MsgKind::VidChunk && from != static_cast<int>(env.instance)) {
    return;
  }
  DLEpoch& st = epoch_state(env.epoch);
  Outbox out;
  st.vid(static_cast<int>(env.instance)).handle(from, env.kind, env.body, out);
  flush(std::move(out), env.epoch, env.instance);
  after_vid_activity(env.epoch, static_cast<int>(env.instance));
}

void DlNode::handle_ba_message(int from, const EnvelopeView& env) {
  DLEpoch& st = epoch_state(env.epoch);
  Outbox out;
  st.ba(static_cast<int>(env.instance)).handle(from, env.kind, env.body, out);
  flush(std::move(out), env.epoch, env.instance);
  after_ba_activity(env.epoch);
}

void DlNode::handle_return_chunk(int from, const EnvelopeView& env) {
  const BlockKey key{env.epoch, static_cast<int>(env.instance)};
  // A chunk the retrieval would reject anyway — not requested, already
  // decoding or done (it arrived after our VidCancel was sent), or a
  // duplicate sender — costs no copy and no hash: it is dropped unparsed.
  if (!retrievals_.accepting(from, key)) return;
  vid::ChunkView m;
  if (!vid::ChunkView::decode(env.body, m)) return;
  if (retrievals_.feed_chunk(from, key, m) != RetrievalManager::Feed::kReady) {
    return;
  }
  // Enough chunks: run the RS decode + re-encode + Merkle check through the
  // executor seam. The job owns its inputs (the retriever's chunks, moved);
  // the retrieval stays active (rejecting further chunks) until the
  // continuation installs the outcome, which re-checks liveness in case it
  // was released meanwhile.
  auto job =
      std::make_shared<const vid::DecodeJob>(retrievals_.take_decode_job(key));
  auto result = std::make_shared<vid::DecodeResult>();
  const std::uint64_t e = env.epoch;
  const std::uint32_t instance = env.instance;
  env_.offload(
      [job, result] { *result = vid::avid_m_run_decode(*job); },
      [this, key, e, instance, result] {
        if (!retrievals_.finish_decode(key, std::move(*result))) return;
        // Newly decoded: tell the other servers to stop sending (§6.3).
        if (cfg_.cancel_on_decode) {
          Outbox out;
          OutMsg cancel;
          cancel.to = OutMsg::kAll;
          cancel.env.kind = MsgKind::VidCancel;
          out.push_back(std::move(cancel));
          flush(std::move(out), e, instance);
        }
        on_block_available(key);
      });
}

void DlNode::handle_cancel(int from, const EnvelopeView& env) {
  // Client `from` decoded block (epoch, instance): drop the ReturnChunk we
  // may still have queued for it.
  env_.cancel_send(retrieval_tag(env.epoch, env.instance, from));
}

void DlNode::after_vid_activity(std::uint64_t e, int instance) {
  DLEpoch& st = epoch_state(e);
  if (!st.note_vid_complete_once(instance)) return;
  note_vid_complete(e, instance);
}

void DlNode::note_vid_complete(std::uint64_t e, int instance) {
  if (flight_ != nullptr) {
    flight_->record(env_.now(), obs::FlightRecorder::Ev::kVidComplete, e,
                    static_cast<std::uint32_t>(instance));
  }
  if (instance == cfg_.self) {
    auto it = own_stages_.find(e);
    if (it != own_stages_.end() && it->second.vid_done == 0) {
      it->second.vid_done = env_.now();
    }
  }
  // Track the V array: V[j] = number of leading epochs of j all complete.
  auto& prefix = completed_prefix_[static_cast<std::size_t>(instance)];
  auto& gaps = completed_gaps_[static_cast<std::size_t>(instance)];
  if (e == prefix) {
    ++prefix;
    while (!gaps.empty() && *gaps.begin() == prefix) {
      gaps.erase(gaps.begin());
      ++prefix;
    }
  } else if (e > prefix) {
    gaps.insert(e);
  }

  if (!cfg_.vote_on_dispersal) {
    // HoneyBadger RBC: download the block as part of "broadcast", then vote.
    start_retrieval(BlockKey{e, instance});
  }
  maybe_vote(e, instance);
}

void DlNode::maybe_vote(std::uint64_t e, int instance) {
  if (e < vote_floor_) {
    // Restart safety: we may already have voted in this epoch before the
    // crash. Re-inputting could equivocate; the cluster closes these BAs
    // without us (crash faults stay crash faults).
    return;
  }
  if (e < retired_floor_) return;  // agreement over; the state is gone
  DLEpoch& st = epoch_state(e);
  ba::BinaryAgreement& ba = st.ba(instance);
  if (ba.has_input()) return;
  if (!st.vid(instance).complete()) return;
  if (!cfg_.vote_on_dispersal &&
      !retrievals_.has(BlockKey{e, instance})) {
    return;  // HB: block must be downloaded before voting
  }
  note_activity(e + 1);
  Outbox out;
  ba.input(true, out);
  flush(std::move(out), e, static_cast<std::uint32_t>(instance));
  after_ba_activity(e);
}

void DlNode::after_ba_activity(std::uint64_t e) {
  DLEpoch& st = epoch_state(e);
  const int decided_before = st.decided_count();
  if (!st.refresh_ba_outputs()) return;

  if (st.one_count() >= cfg_.n - cfg_.f && e >= vote_floor_) {
    // Fig. 6: enough blocks committed — close the epoch by voting 0 on the
    // instances we have not voted on. (Below the restart vote floor we
    // might have voted differently pre-crash, so we stay silent.)
    note_activity(e + 1);
    for (int i = 0; i < cfg_.n; ++i) {
      if (st.ba(i).has_input()) continue;
      Outbox out;
      st.ba(i).input(false, out);
      flush(std::move(out), e, static_cast<std::uint32_t>(i));
    }
    st.refresh_ba_outputs();
  }

  // decided_count_ is cached state bumped only by refresh_ba_outputs(), so
  // the delta across this call is exactly the BA instances decided here.
  const int newly_decided = st.decided_count() - decided_before;
  if (newly_decided > 0) {
    stats_.ba_decisions += static_cast<std::uint64_t>(newly_decided);
    if (flight_ != nullptr) {
      flight_->record(env_.now(), obs::FlightRecorder::Ev::kBaDecide, e, 0,
                      static_cast<std::uint64_t>(st.decided_count()));
    }
  }
  if (flight_ != nullptr && st.all_ba_output()) {
    flight_->record(env_.now(), obs::FlightRecorder::Ev::kEpochClosed, e, 0,
                    static_cast<std::uint64_t>(st.one_count()));
  }

  if (!st.all_ba_output()) return;

  if (auto it = own_stages_.find(e);
      it != own_stages_.end() && it->second.ba_done == 0) {
    it->second.ba_done = env_.now();
  }

  // Commit set decided. Kick off retrieval of committed blocks and account
  // for our own block's fate.
  for (int j : st.commit_set()) start_retrieval(BlockKey{e, j});

  const bool committed =
      std::find(st.commit_set().begin(), st.commit_set().end(), cfg_.self) !=
      st.commit_set().end();
  auto own = own_blocks_.find(e);
  if (!committed && own != own_blocks_.end()) {
    ++stats_.own_blocks_dropped;
    if (cfg_.repropose_dropped) {
      // Plain HoneyBadger: the dropped block will never be delivered, so
      // its transactions go back to the head of the queue.
      for (auto it = own->second.txs.rbegin(); it != own->second.txs.rend(); ++it) {
        input_queue_bytes_.fetch_add(it->wire_size(), std::memory_order_relaxed);
        stats_.reproposed_tx++;
        input_queue_.push_front(std::move(*it));
      }
      retrievals_.release(BlockKey{e, cfg_.self});
      own_blocks_.erase(own);
      own_stages_.erase(e);
    }
  }

  maybe_propose();  // DL: the next dispersal may begin now
  try_deliver();
}

// --- retrieval & delivery ----------------------------------------------------

void DlNode::start_retrieval(BlockKey key) {
  Outbox out;
  if (retrievals_.ensure_started(key, out)) {
    flush(std::move(out), key.epoch, static_cast<std::uint32_t>(key.proposer));
  }
}

void DlNode::on_block_available(BlockKey key) {
  maybe_vote(key.epoch, key.proposer);
  try_deliver();
}

void DlNode::try_deliver() {
  bool delivered_any = false;
  while (true) {
    auto it = epochs_.find(deliver_next_);
    if (it == epochs_.end() || !it->second.all_ba_output()) break;
    DLEpoch& st = it->second;
    const std::uint64_t e = deliver_next_;

    // Phase 2 step 1: all BA-committed blocks must be downloaded.
    bool missing = false;
    for (int j : st.commit_set()) {
      const BlockKey key{e, j};
      if (!retrievals_.has(key)) {
        start_retrieval(key);
        missing = true;
      }
    }
    if (missing) break;

    // Phase 2 steps 3-4: combine observations, queue linked retrievals.
    if (cfg_.inter_node_linking && !st.linked_computed) {
      // Only the V arrays are needed here: read them without decoding the
      // transactions (commit() decodes each block once, when it delivers).
      std::vector<std::vector<std::uint64_t>> v_arrays;
      v_arrays.reserve(st.commit_set().size());
      for (int k : st.commit_set()) {
        v_arrays.push_back(
            observation_or_poison(retrievals_.get(BlockKey{e, k}), cfg_.n));
      }
      std::vector<std::uint64_t> column(v_arrays.size());
      for (int j = 0; j < cfg_.n; ++j) {
        for (std::size_t k = 0; k < v_arrays.size(); ++k) {
          column[k] = v_arrays[k][static_cast<std::size_t>(j)];
        }
        // E_e[j] = (f+1)-th largest observation for node j. With at most f
        // Byzantine proposers, at least one correct node backs this value —
        // the linked blocks are guaranteed retrievable (Lemma D.4).
        std::sort(column.begin(), column.end(), std::greater<>());
        const std::uint64_t ee = column[static_cast<std::size_t>(cfg_.f)];
        if (ee == kInfObservation) continue;  // impossible with <= f faults
        auto& scanned = linked_scanned_[static_cast<std::size_t>(j)];
        for (std::uint64_t d = scanned; d < ee; ++d) {
          const BlockKey key{d, j};
          if (delivered_.contains(key) || linked_pending_.contains(key)) continue;
          linked_pending_.insert(key);
          st.linked_blocks.emplace_back(d, j);
          start_retrieval(key);
        }
        if (ee > scanned) scanned = ee;
      }
      std::sort(st.linked_blocks.begin(), st.linked_blocks.end());
      st.linked_computed = true;
    }

    if (cfg_.inter_node_linking) {
      bool linked_missing = false;
      for (const auto& [d, j] : st.linked_blocks) {
        if (!retrievals_.has(BlockKey{d, j})) {
          linked_missing = true;
          break;
        }
      }
      if (linked_missing) break;
    }

    // Phase 2 steps 2 & 5: deliver BA-committed blocks (by node index), then
    // linked blocks (by epoch, node index).
    auto deliver = [&](BlockKey key) {
      if (!delivered_.contains(key)) {
        commit(e, key, retrievals_.get(key), Origin::kLive);
      }
    };
    for (int j : st.commit_set()) deliver(BlockKey{e, j});
    for (const auto& [d, j] : st.linked_blocks) deliver(BlockKey{d, j});
    st.linked_blocks.clear();
    close_epoch(e, st.commit_set().size());
    delivered_any = true;
  }
  if (delivered_any) {
    request_store_drain();
    maybe_propose();  // HB advances epochs on delivery
  }
}

void DlNode::close_epoch(std::uint64_t at, std::uint64_t blocks) {
  ++stats_.delivered_epochs;
  if (flight_ != nullptr) {
    flight_->record(env_.now(), obs::FlightRecorder::Ev::kDeliver, at, 0,
                    blocks);
  }
  ++deliver_next_;
  if (store_ != nullptr) store_->append_epoch_done(at);
}

// Besides settled and horizon-old epochs (node.hpp), epochs below the
// restore/catch-up floor retire: any local state there was built from
// stray messages after the cluster closed them without us. Retirement runs
// in epoch order, so the floor is one number, and this is the only place
// epoch state is erased.
void DlNode::retire_epochs() {
  std::uint64_t floor =
      std::max(retired_floor_, std::min(closed_floor_, deliver_next_));
  if (deliver_next_ > kRetireHorizon) {
    floor = std::max(floor, deliver_next_ - kRetireHorizon);
  }
  while (floor < deliver_next_) {
    auto it = epochs_.find(floor);
    if (it != epochs_.end() && !it->second.settled()) break;
    ++floor;
  }
  if (floor == retired_floor_) return;
  epochs_.erase(epochs_.begin(), epochs_.lower_bound(floor));
  retired_floor_ = floor;
}

// The delivery rule (Fig. 17, Phase 2), for every origin. A block committed
// by live retrieval, by coded catch-up or by replay from the local store
// yields the same decoded block, stats, fingerprint link and stored record,
// so a replica's ledger does not depend on how its bytes arrived. `content`
// may alias retrieval state; it is not touched after the release below.
void DlNode::commit(std::uint64_t at_epoch, BlockKey key, const Bytes& content,
                    Origin origin) {
  const bool bad = is_bad_uploader(content);
  bool verbatim = false;
  const Block block = decode_or_poison(content, cfg_.n, &verbatim);

  ++stats_.delivered_blocks;
  if (origin == Origin::kCatchUp) ++stats_.caught_up_blocks;
  if (key.epoch != at_epoch) ++stats_.delivered_linked_blocks;
  if (bad) ++stats_.bad_uploader_blocks;
  stats_.delivered_payload_bytes += block.payload_bytes();
  stats_.delivered_tx_count += block.txs.size();
  stats_.input_queue_bytes = input_queue_bytes_.load(std::memory_order_relaxed);

  // Chain a fingerprint so tests can compare delivery order across nodes.
  const Hash content_digest = sha256(content);
  Writer w;
  w.raw(fingerprint_.view());
  w.u64(key.epoch);
  w.u32(static_cast<std::uint32_t>(key.proposer));
  w.raw(content_digest.view());
  fingerprint_ = sha256(w.data());
  // The ledger digest: bytes that decoded as they are re-encode to
  // themselves, so theirs is the digest just taken. Poison and empty-V
  // blocks (rewritten by decode_or_poison) hash their canonical encoding.
  ledger_digest_ = verbatim ? content_digest : sha256(block.encode());

  if (store_ != nullptr && origin != Origin::kReplay) {
    store_->append_block(at_epoch, key.epoch,
                         static_cast<std::uint32_t>(key.proposer), bad,
                         content);
  }

  if (flight_ != nullptr && origin == Origin::kCatchUp) {
    flight_->record(env_.now(), obs::FlightRecorder::Ev::kCatchUpInstall,
                    key.epoch, static_cast<std::uint32_t>(key.proposer));
  }

  if (key.proposer == cfg_.self) {
    auto it = own_stages_.find(key.epoch);
    if (it != own_stages_.end()) it->second.delivered = env_.now();
  }

  // Replay feeds history to its visitor only: live-only reactions wired
  // into the delivery callback must not fire for blocks committed pre-crash.
  const DeliveryFn& sink = origin == Origin::kReplay ? on_replay_ : on_deliver_;
  if (sink) sink(at_epoch, key, block, env_.now());

  delivered_.insert(key);
  linked_pending_.erase(key);
  retrievals_.release(key);
  if (key.proposer == cfg_.self) {
    own_blocks_.erase(key.epoch);
    own_stages_.erase(key.epoch);
  }
}

// --- durability --------------------------------------------------------------

void DlNode::attach_store(storage::LedgerStore* store,
                          const DeliveryFn& on_replay) {
  store_ = store;
  if (store_ == nullptr) return;
  on_replay_ = on_replay;
  recover_from_store();
  on_replay_ = nullptr;
}

void DlNode::recover_from_store() {
  store_->for_each_committed([&](const storage::BlockRecord& r) {
    commit(r.at_epoch, BlockKey{r.block_epoch, static_cast<int>(r.proposer)},
           r.content, Origin::kReplay);
    return true;
  });
  deliver_next_ = store_->delivered_frontier();
  stats_.delivered_epochs = deliver_next_;
  stats_.recovered_epochs = deliver_next_;

  // Resume the pipeline after everything we already participated in. The
  // vote floor keeps a crash from turning into equivocation; the closed
  // floor marks those epochs as agreement-complete for proposal gating.
  vote_floor_ = store_->activity_frontier();
  propose_epoch_ = std::max(deliver_next_, vote_floor_);
  closed_floor_ = propose_epoch_;
  stats_.current_dispersal_epoch = propose_epoch_;
  last_probe_deliver_ = deliver_next_;

  // Linked-delivery scan frontiers: the contiguous delivered prefix per
  // proposer. Under-setting is safe (the delivered_ check skips re-seen
  // keys), so holes simply leave the frontier lower.
  for (int j = 0; j < cfg_.n; ++j) {
    std::uint64_t d = 0;
    while (delivered_.contains(BlockKey{d, j})) ++d;
    linked_scanned_[static_cast<std::size_t>(j)] = d;
  }
}

void DlNode::note_activity(std::uint64_t epoch) {
  if (store_ == nullptr) return;
  store_->append_activity_frontier(epoch);
  // No immediate drain: the record rides along with the next delivery
  // drain. This makes the floor best-effort by one batch — a crash in that
  // window re-votes identically or stays silent, never both ways.
  request_store_drain();
}

void DlNode::request_store_drain() {
  if (store_ == nullptr || store_drain_pending_) return;
  store_drain_pending_ = true;
  storage::LedgerStore* store = store_;
  env_.offload([store] { store->drain(); },
               [this] { store_drain_pending_ = false; });
}

// --- catch-up ----------------------------------------------------------------

// A tick starts a round only when nothing moved since the previous tick:
// no delivery (live or installed by a round) and, if a round is active, no
// CatchUpChunk/CatchUpDone for it. A round that is still being served or
// installed is left alone — restarting it would make every store-backed
// peer serve its whole window again, ahead of their live ReturnChunks.
void DlNode::catch_up_tick() {
  env_.after(cfg_.catch_up_interval, [this] { catch_up_tick(); });
  const bool progressed = deliver_next_ != last_probe_deliver_ ||
                          (round_.active && round_heard_);
  last_probe_deliver_ = deliver_next_;
  round_heard_ = false;
  if (progressed) return;
  start_catch_up_round();
}

void DlNode::start_catch_up_round() {
  round_ = CatchUpRound{};
  round_.active = true;
  round_.from = deliver_next_;
  ++stats_.catch_up_rounds;
  if (flight_ != nullptr) {
    flight_->record(env_.now(), obs::FlightRecorder::Ev::kCatchUpRound,
                    round_.from);
  }

  Envelope env;
  env.kind = MsgKind::CatchUpRequest;
  env.epoch = round_.from;
  env.instance = 0;
  env.body = CatchUpRequestMsg{round_.from, kCatchUpWindow}.encode();
  for (int i = 0; i < cfg_.n; ++i) {
    if (i == cfg_.self) continue;
    env_.send(i, env, classify(env, i));
  }
}

void DlNode::handle_catch_up_request(int from, const EnvelopeView& env) {
  CatchUpRequestMsg req;
  if (!CatchUpRequestMsg::decode(env.body, req)) return;
  if (store_ == nullptr || from == cfg_.self || from < 0) return;
  if (req.from_epoch != env.epoch) return;
  if (!catch_up_serving_.insert(from).second) {
    return;  // one serve per peer in flight (request-flood defense)
  }

  // Serving is store reads + one RS encode per block: all off-loop. The
  // work closure touches only the (internally synchronized) store and value
  // captures, per the offload contract.
  storage::LedgerStore* store = store_;
  const vid::Params params = vid_params_;
  const int self = cfg_.self;
  const std::uint64_t lo = req.from_epoch;
  const std::uint32_t window =
      std::clamp<std::uint32_t>(req.max_epochs, 1, kCatchUpWindow);
  auto replies = std::make_shared<std::vector<Envelope>>();
  auto frontier = std::make_shared<std::uint64_t>(0);
  env_.offload(
      [store, params, self, lo, window, replies, frontier] {
        *frontier = store->delivered_frontier();
        const std::uint64_t hi =
            std::min<std::uint64_t>(*frontier, lo + window);
        std::vector<storage::BlockRecord> blocks;
        for (std::uint64_t e = lo; e < hi; ++e) {
          if (!store->blocks_at(e, blocks)) break;
          CatchUpChunkMsg m;
          m.round_from = lo;
          m.at_epoch = e;
          m.block_count = static_cast<std::uint32_t>(blocks.size());
          if (blocks.empty()) {
            Envelope reply;
            reply.kind = MsgKind::CatchUpChunk;
            reply.epoch = e;
            reply.body = m.encode();
            replies->push_back(std::move(reply));
            continue;
          }
          for (std::size_t i = 0; i < blocks.size(); ++i) {
            m.block_index = static_cast<std::uint32_t>(i);
            m.block_epoch = blocks[i].block_epoch;
            m.proposer = blocks[i].proposer;
            m.chunk = avid_m_disperse(
                params, blocks[i].content)[static_cast<std::size_t>(self)];
            Envelope reply;
            reply.kind = MsgKind::CatchUpChunk;
            reply.epoch = e;
            reply.body = m.encode();
            replies->push_back(std::move(reply));
          }
        }
      },
      [this, from, lo, replies, frontier] {
        catch_up_serving_.erase(from);
        for (Envelope& reply : *replies) {
          const runtime::SendOpts opts = classify(reply, from);
          env_.send(from, std::move(reply), opts);
        }
        Envelope done;
        done.kind = MsgKind::CatchUpDone;
        done.epoch = lo;
        done.body = CatchUpDoneMsg{lo, *frontier}.encode();
        env_.send(from, std::move(done), classify(done, from));
      });
}

void DlNode::handle_catch_up_done(int from, const EnvelopeView& env) {
  CatchUpDoneMsg m;
  if (!CatchUpDoneMsg::decode(env.body, m)) return;
  if (!round_.active || m.round_from != round_.from) return;
  round_heard_ = true;
  round_.frontier_claims[from] = m.frontier;

  // Catch-up target: the (f+1)-th largest claimed frontier — the highest
  // value at least one honest peer vouches for.
  if (round_.frontier_claims.size() > static_cast<std::size_t>(cfg_.f)) {
    std::vector<std::uint64_t> vals;
    vals.reserve(round_.frontier_claims.size());
    for (const auto& [peer, frontier] : round_.frontier_claims) {
      vals.push_back(frontier);
    }
    std::sort(vals.begin(), vals.end(), std::greater<>());
    round_.target =
        std::max(round_.target, vals[static_cast<std::size_t>(cfg_.f)]);
  }
  try_install_catch_up();
}

void DlNode::handle_catch_up_chunk(int from, const EnvelopeView& env) {
  CatchUpChunkMsg m;
  if (!CatchUpChunkMsg::decode(env.body, m)) return;
  if (!round_.active || m.round_from != round_.from) return;
  if (m.at_epoch != env.epoch) return;
  if (m.at_epoch < deliver_next_ || m.at_epoch >= round_.from + kCatchUpWindow) {
    return;
  }
  if (m.block_count > kMaxCatchUpBlocksPerEpoch) return;
  round_heard_ = true;

  CatchUpEpoch& ep = round_.epochs[m.at_epoch];
  ep.count_claims.emplace(from, m.block_count);  // first claim per peer wins
  if (!ep.count_confirmed) {
    std::map<std::uint32_t, int> votes;
    for (const auto& [peer, count] : ep.count_claims) ++votes[count];
    for (const auto& [count, n] : votes) {
      if (n >= cfg_.f + 1) {
        ep.count_confirmed = true;
        ep.count = count;
        break;
      }
    }
  }
  if (m.block_count == 0) {
    try_install_catch_up();
    return;
  }

  CatchUpSlot& slot = ep.slots[m.block_index];
  slot.key_claims.emplace(from,
                          std::make_pair(m.block_epoch, m.proposer));
  if (!slot.key_confirmed) {
    std::map<std::pair<std::uint64_t, std::uint32_t>, int> votes;
    for (const auto& [peer, key] : slot.key_claims) ++votes[key];
    for (const auto& [key, n] : votes) {
      if (n >= cfg_.f + 1) {
        slot.key_confirmed = true;
        slot.block_epoch = key.first;
        slot.proposer = key.second;
        break;
      }
    }
  }

  if (slot.have || slot.decoding) {
    try_install_catch_up();  // key may just have been confirmed
    return;
  }
  if (!slot.retriever) {
    slot.retriever =
        std::make_unique<vid::AvidMRetriever>(vid_params_, cfg_.self);
  }
  if (slot.retriever->offer_chunk(from, m.chunk)) {
    slot.decoding = true;
    auto job = std::make_shared<const vid::DecodeJob>(
        slot.retriever->take_decode_job());
    auto result = std::make_shared<vid::DecodeResult>();
    const std::uint64_t at = m.at_epoch;
    const std::uint32_t index = m.block_index;
    const std::uint64_t round_from = round_.from;
    env_.offload(
        [job, result] { *result = vid::avid_m_run_decode(*job); },
        [this, at, index, round_from, result] {
          if (!round_.active || round_.from != round_from) return;
          auto it = round_.epochs.find(at);
          if (it == round_.epochs.end()) return;
          auto sit = it->second.slots.find(index);
          if (sit == it->second.slots.end()) return;
          CatchUpSlot& slot = sit->second;
          if (!slot.decoding || !slot.retriever) return;
          slot.decoding = false;
          if (result->bad_uploader) {
            // An inconsistent chunk set needs n-2f same-root chunks yet at
            // most f peers are faulty, so this cannot happen with the root
            // of real committed content — some sender forged a root. Reset
            // and keep collecting honest chunks.
            slot.retriever = std::make_unique<vid::AvidMRetriever>(
                vid_params_, cfg_.self);
            return;
          }
          slot.content = std::move(result->block);
          slot.retriever.reset();
          slot.have = true;
          try_install_catch_up();
        });
  }
}

void DlNode::try_install_catch_up() {
  if (!round_.active) return;
  bool installed = false;
  while (true) {
    // Entries the live path delivered meanwhile are dead weight.
    while (!round_.epochs.empty() &&
           round_.epochs.begin()->first < deliver_next_) {
      round_.epochs.erase(round_.epochs.begin());
    }
    auto it = round_.epochs.find(deliver_next_);
    if (it == round_.epochs.end()) break;
    CatchUpEpoch& ep = it->second;
    if (!ep.count_confirmed) break;
    bool complete = true;
    for (std::uint32_t i = 0; i < ep.count; ++i) {
      auto sit = ep.slots.find(i);
      if (sit == ep.slots.end() || !sit->second.have ||
          !sit->second.key_confirmed) {
        complete = false;
        break;
      }
    }
    if (!complete) break;

    const std::uint64_t at = deliver_next_;
    for (std::uint32_t i = 0; i < ep.count; ++i) {
      CatchUpSlot& slot = ep.slots.at(i);
      const BlockKey key{slot.block_epoch, static_cast<int>(slot.proposer)};
      if (!delivered_.contains(key)) {
        commit(at, key, slot.content, Origin::kCatchUp);
      }
    }
    close_epoch(at, ep.count);
    ++stats_.caught_up_epochs;
    round_.epochs.erase(it);
    installed = true;
  }

  if (installed) {
    closed_floor_ = std::max(closed_floor_, deliver_next_);
    if (propose_epoch_ < deliver_next_) {
      propose_epoch_ = deliver_next_;
      stats_.current_dispersal_epoch = propose_epoch_;
    }
    request_store_drain();
    try_deliver();  // live state may connect at the new frontier
    maybe_propose();
  }

  if (round_.active) {
    if (round_.target > 0 && deliver_next_ >= round_.target) {
      round_.active = false;  // caught up to the confirmed frontier
    } else if (deliver_next_ >= round_.from + kCatchUpWindow &&
               round_.target > deliver_next_) {
      start_catch_up_round();  // window exhausted, confirmed epochs remain
    }
  }
}

}  // namespace dl::core
