// DlNode — a full DispersedLedger replica (Fig. 17 of the paper), runnable
// on any runtime::Env backend: the deterministic simulator (runtime::SimEnv)
// or real TCP sockets (net::TcpEnv, see dlnoded).
//
// One node plays every role: AVID-M server for all N VID instances of every
// epoch, BA participant in all N instances, disperser of its own proposals,
// and retrieval client for committed blocks. The configuration flags also
// express the paper's baselines and variants:
//
//   DispersedLedger  vote_on_dispersal=1  linking=1  coupled=0  repropose=0
//   DL-Coupled       vote_on_dispersal=1  linking=1  coupled=1  repropose=0
//   HoneyBadger      vote_on_dispersal=0  linking=0  coupled=-  repropose=1
//   HB-Link          vote_on_dispersal=0  linking=1  coupled=-  repropose=0
//
// vote_on_dispersal=0 makes the node download a block before voting for it
// (VID + immediate retrieval == the reliable-broadcast construction
// HoneyBadger uses) and advance epochs only after full delivery — exactly
// the coupling DispersedLedger removes.
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>

#include "ba/common_coin.hpp"
#include "dl/block.hpp"
#include "dl/catchup.hpp"
#include "dl/epoch.hpp"
#include "dl/retrieval.hpp"
#include "runtime/env.hpp"

namespace dl::storage {
class LedgerStore;
}  // namespace dl::storage

namespace dl::obs {
class FlightRecorder;
}  // namespace dl::obs

namespace dl::core {

struct NodeConfig {
  int n = 4;
  int f = 1;
  int self = 0;
  std::uint64_t coin_seed = 7;

  // Proposal pacing (Nagle; §5): propose when `propose_delay` elapsed since
  // the last proposal OR `propose_size` bytes are queued — whichever first —
  // and the previous epoch allows it.
  double propose_delay = 0.100;       // seconds
  std::size_t propose_size = 150'000; // bytes
  std::size_t max_block_bytes = 2'000'000;

  // Protocol shape (see table above).
  bool vote_on_dispersal = true;  // false => HoneyBadger-style RBC voting
  bool inter_node_linking = true;
  bool coupled_proposals = false; // DL-Coupled: empty block while behind
  bool repropose_dropped = false; // plain HB: resubmit dropped blocks' txs
  // Stop proposing when delivery lags dispersal by more than P epochs
  // (§4.5 "constantly-slow nodes"; 0 disables).
  int fall_behind_stop = 0;

  // Retrieval optimization (§6.3): broadcast a cancel once decoded.
  bool cancel_on_decode = true;

  // Catch-up probe period in seconds: while delivery is stalled the node
  // periodically asks peers for its missing committed epochs (served from
  // their LedgerStore as coded chunks). 0 disables the probe — the default,
  // so simulator benches and nodes without a store are untouched.
  double catch_up_interval = 0;

  // Infinite-backlog workloads: when > 0 the input queue is bottomless and
  // blocks are filled at proposal time with synthetic transactions of this
  // payload size (timestamps = proposal time; throughput-only experiments).
  std::size_t backlog_tx_bytes = 0;

  // Byzantine behaviours, for failure-injection tests and adversary benches.
  // The node otherwise follows the protocol (a useful worst case: it keeps
  // liveness while attacking safety-relevant paths).
  bool byz_inconsistent_blocks = false;  // disperse non-codeword chunk sets
  bool byz_lie_v_array = false;          // inflate the reported V array

  static NodeConfig dispersed_ledger(int n, int f, int self);
  static NodeConfig dl_coupled(int n, int f, int self);
  static NodeConfig honey_badger(int n, int f, int self);
  static NodeConfig hb_link(int n, int f, int self);
};

struct NodeStats {
  std::uint64_t delivered_payload_bytes = 0;  // confirmed tx bytes
  std::uint64_t delivered_tx_count = 0;
  std::uint64_t delivered_blocks = 0;
  std::uint64_t delivered_linked_blocks = 0;  // via inter-node linking
  std::uint64_t delivered_epochs = 0;
  std::uint64_t proposed_blocks = 0;
  std::uint64_t proposed_empty_blocks = 0;    // DL-Coupled back-pressure
  std::uint64_t own_blocks_dropped = 0;       // proposed but not BA-committed
  std::uint64_t reproposed_tx = 0;
  std::uint64_t bad_uploader_blocks = 0;
  std::uint64_t current_dispersal_epoch = 0;
  std::size_t input_queue_bytes = 0;
  // Crash recovery / catch-up.
  std::uint64_t recovered_epochs = 0;     // replayed from the local store
  std::uint64_t caught_up_epochs = 0;     // installed via coded catch-up
  std::uint64_t caught_up_blocks = 0;
  std::uint64_t catch_up_rounds = 0;
  // Wire-level protocol counters (tallied centrally in flush()/on_receive();
  // a broadcast counts once per destination node).
  std::uint64_t vid_chunks_sent = 0;      // VidChunk / FpChunk out
  std::uint64_t vid_chunks_received = 0;
  std::uint64_t return_chunks_sent = 0;   // retrieval VidReturnChunk out
  std::uint64_t return_chunks_received = 0;
  std::uint64_t ba_msgs_sent = 0;
  std::uint64_t ba_msgs_received = 0;
  std::uint64_t ba_decisions = 0;         // BA instances decided locally
  std::uint64_t catch_up_msgs_received = 0;
};

// Pipeline checkpoints of one own-proposal, in home-loop seconds (0 = not
// reached). The gateway turns consecutive differences into the per-stage
// latency rows of BENCH_loadgen: ingress (admit→proposed), disperse
// (proposed→vid_done), ba (vid_done→ba_done), retrieve (ba_done→delivered),
// notify (delivered→commit frame flushed).
struct OwnBlockStages {
  double proposed = 0;   // propose_now() built and dispersed the block
  double vid_done = 0;   // our own VID instance completed
  double ba_done = 0;    // every BA of the proposal epoch output
  double delivered = 0;  // block executed/delivered
};

class DlNode : public runtime::Receiver {
 public:
  // One node per Env. The caller injects the node into its backend at start
  // time (SimEnv::attach / TcpEnv::start); the protocol logic below cannot
  // tell the backends apart. Every method of this class — including the
  // Receiver callbacks and submit() — is home-loop-affine; cross-thread
  // producers go through Env::defer or EventLoop::post.
  DlNode(NodeConfig cfg, runtime::Env& env);

  // --- client interface -------------------------------------------------
  // Submits a transaction to this node (consortium model: clients talk to
  // their organization's node).
  void submit(Bytes payload);

  // Invoked for every block this run commits — by live retrieval or by
  // coded catch-up — in delivery order, identical across correct nodes.
  using DeliveryFn =
      std::function<void(std::uint64_t epoch_delivered_in, BlockKey key,
                         const Block& block, double now)>;
  void set_delivery_callback(DeliveryFn fn) { on_deliver_ = std::move(fn); }

  // The ledger digest of the block being handed to the delivery callback or
  // the replay visitor: sha256(block.encode()), the digest a ledger line
  // names. Valid inside those calls only. commit() computes it once, from
  // the digest of the committed bytes it already takes for the fingerprint
  // chain whenever those bytes re-encode verbatim.
  const Hash& ledger_digest() const { return ledger_digest_; }

  const NodeStats& stats() const { return stats_; }
  const NodeConfig& config() const { return cfg_; }

  // Optional protocol flight recorder: coarse milestones (propose, chunk
  // rx, BA decide, deliver, catch-up) stamped with env_.now(), so the same
  // hooks trace identically on the simulator (virtual time) and the real
  // runtime. Null (the default) records nothing. Set during startup wiring.
  void set_flight_recorder(obs::FlightRecorder* fr) { flight_ = fr; }
  // Live backlog of submitted-but-not-yet-proposed transactions (wire
  // bytes). The client gateway uses this as its pump watermark so the
  // mempool, not this unbounded queue, absorbs ingress bursts. A relaxed
  // atomic, so the metrics plane may read it from any thread.
  std::size_t input_queue_bytes() const {
    return input_queue_bytes_.load(std::memory_order_relaxed);
  }
  // Stage checkpoints of the own-block proposed in epoch `e`; nullptr once
  // pruned (after delivery) or if nothing was proposed there. Valid during
  // the delivery callback for the block being delivered. Home-loop only.
  const OwnBlockStages* own_block_stages(std::uint64_t e) const {
    auto it = own_stages_.find(e);
    return it == own_stages_.end() ? nullptr : &it->second;
  }
  // Delivered-prefix fingerprint: hash chain over (epoch, proposer, bytes).
  // Two correct nodes agree on every prefix (tests compare at equal counts).
  Hash delivery_fingerprint() const { return fingerprint_; }
  std::uint64_t next_epoch_to_deliver() const { return deliver_next_; }

  // Epoch retirement. An epoch below deliver_next_ whose BAs all halted and
  // whose VID instances each served every peer but their proposer is
  // retired: its DLEpoch (chunks, proofs, BA state) is erased and later
  // VID/BA messages for it are counted and dropped. An epoch kRetireHorizon
  // behind deliver_next_ is retired regardless, so a crashed or muted peer
  // cannot pin memory; a peer that asks later recovers through coded
  // catch-up, which needs a LedgerStore on the serving side. The floor
  // only rises.
  static constexpr std::uint64_t kRetireHorizon = 256;
  std::uint64_t retired_floor() const { return retired_floor_; }
  std::size_t live_epochs() const { return epochs_.size(); }

  // Durable storage. Call before start(): replays the store's committed
  // prefix through the same commit path as live delivery and catch-up
  // (delivered set, fingerprint chain, delivery stats), restores the
  // delivery/propose frontiers so the node resumes BA from its first
  // uncommitted epoch, and persists every block/epoch delivered from here
  // on. Each replayed block is handed, in delivery order, to `on_replay` —
  // the replay visitor — and never to the delivery callback, so live-only
  // reactions cannot fire for history. The store must outlive the node.
  void attach_store(storage::LedgerStore* store,
                    const DeliveryFn& on_replay = {});
  storage::LedgerStore* store() const { return store_; }

  // --- runtime::Receiver --------------------------------------------------
  void start() override;
  // `bytes` is parsed as an EnvelopeView: every handler below sees a body
  // that aliases the transport's frame buffer, valid only for this call.
  // Whatever a handler keeps, it copies — a kept chunk exactly once.
  void on_receive(int from, ByteView bytes) override;

 private:
  DLEpoch& epoch_state(std::uint64_t e);

  // Message plumbing: assign envelope ids, map kinds to traffic classes.
  void flush(Outbox&& out, std::uint64_t epoch, std::uint32_t instance);
  runtime::SendOpts classify(const Envelope& env, int to) const;
  std::uint64_t retrieval_tag(std::uint64_t epoch, std::uint32_t instance,
                              int client) const;

  // Dispersal pipeline.
  void maybe_propose();
  void propose_now();
  bool can_start_next_epoch() const;
  Block build_block();

  // Protocol reactions.
  void handle_vid_message(int from, const EnvelopeView& env);
  void handle_ba_message(int from, const EnvelopeView& env);
  void handle_return_chunk(int from, const EnvelopeView& env);
  void handle_cancel(int from, const EnvelopeView& env);
  void after_vid_activity(std::uint64_t e, int instance);
  void after_ba_activity(std::uint64_t e);
  void note_vid_complete(std::uint64_t e, int instance);

  // Voting rule: DL inputs 1 on VID completion; HB on block download.
  void maybe_vote(std::uint64_t e, int instance);

  // Retrieval + delivery.
  void start_retrieval(BlockKey key);
  void on_block_available(BlockKey key);
  void try_deliver();

  // The single delivery funnel: every committed block passes through
  // commit(), whichever path brought its bytes.
  enum class Origin { kLive, kCatchUp, kReplay };
  void commit(std::uint64_t at_epoch, BlockKey key, const Bytes& content,
              Origin origin);
  // Closes delivery epoch `at` (== deliver_next_) once all its blocks were
  // committed, for live delivery and catch-up alike; `blocks` labels the
  // flight event.
  void close_epoch(std::uint64_t at, std::uint64_t blocks);
  // Raises retired_floor_ over every retirable epoch and erases their state.
  void retire_epochs();

  // Durability + catch-up.
  void recover_from_store();
  void note_activity(std::uint64_t epoch);  // persists the vote/propose floor
  void request_store_drain();
  void handle_catch_up_request(int from, const EnvelopeView& env);
  void handle_catch_up_chunk(int from, const EnvelopeView& env);
  void handle_catch_up_done(int from, const EnvelopeView& env);
  void catch_up_tick();
  void start_catch_up_round();
  void try_install_catch_up();

  NodeConfig cfg_;
  runtime::Env& env_;
  ba::CommonCoin coin_;
  vid::Params vid_params_;

  std::map<std::uint64_t, DLEpoch> epochs_;
  RetrievalManager retrievals_;

  // Input queue. The byte gauge is atomic only so off-loop readers are
  // well-defined; all mutation happens on the home loop.
  std::deque<Transaction> input_queue_;
  std::atomic<std::size_t> input_queue_bytes_{0};

  // Dispersal pipeline state.
  std::uint64_t propose_epoch_ = 0;  // next epoch to propose into
  double last_propose_time_ = -1e18;
  bool propose_timer_armed_ = false;
  std::map<std::uint64_t, Block> own_blocks_;  // until delivered
  std::map<std::uint64_t, OwnBlockStages> own_stages_;  // until delivered

  // VID completion tracking for the V array (§4.3).
  std::vector<std::uint64_t> completed_prefix_;        // V[j]
  std::vector<std::set<std::uint64_t>> completed_gaps_;  // out-of-order epochs

  // Delivery state.
  std::uint64_t deliver_next_ = 0;
  std::uint64_t retired_floor_ = 0;  // no DLEpoch below; only rises
  std::set<BlockKey> delivered_;
  std::set<BlockKey> linked_pending_;           // queued by linking
  std::vector<std::uint64_t> linked_scanned_;   // per-proposer scan frontier

  DeliveryFn on_deliver_;
  DeliveryFn on_replay_;  // set only while attach_store replays
  NodeStats stats_;
  obs::FlightRecorder* flight_ = nullptr;
  Hash fingerprint_{};
  Hash ledger_digest_{};  // of the block commit() is handing over

  // --- durability + catch-up state --------------------------------------
  storage::LedgerStore* store_ = nullptr;
  // After a restart the node must not vote in epochs it may already have
  // voted in pre-crash (crash must not become equivocation), and must treat
  // epochs below its restored pipeline as agreement-closed (their DLEpoch
  // state is gone, so all_ba_output() could never turn true again).
  std::uint64_t vote_floor_ = 0;
  std::uint64_t closed_floor_ = 0;
  bool store_drain_pending_ = false;

  // One catch-up round at a time. Slots are keyed by delivery position
  // within an epoch; every per-peer map doubles as the f+1 agreement vote.
  struct CatchUpSlot {
    std::map<int, std::pair<std::uint64_t, std::uint32_t>> key_claims;
    bool key_confirmed = false;
    std::uint64_t block_epoch = 0;
    std::uint32_t proposer = 0;
    std::unique_ptr<vid::AvidMRetriever> retriever;
    bool decoding = false;
    bool have = false;
    Bytes content;
  };
  struct CatchUpEpoch {
    std::map<int, std::uint32_t> count_claims;
    bool count_confirmed = false;
    std::uint32_t count = 0;
    std::map<std::uint32_t, CatchUpSlot> slots;
  };
  struct CatchUpRound {
    bool active = false;
    std::uint64_t from = 0;
    std::map<int, std::uint64_t> frontier_claims;
    std::uint64_t target = 0;  // (f+1)-th largest claimed frontier
    std::map<std::uint64_t, CatchUpEpoch> epochs;
  };
  CatchUpRound round_;
  // Progress checks between probe ticks: the delivery frontier, and whether
  // the active round heard a CatchUpChunk/CatchUpDone since the last tick.
  std::uint64_t last_probe_deliver_ = 0;
  bool round_heard_ = false;
  bool catch_up_timer_armed_ = false;
  std::set<int> catch_up_serving_;  // peers with a serve offload in flight
};

}  // namespace dl::core
