#include "obs/exporter.hpp"

#include "client/gateway.hpp"
#include "dl/node.hpp"
#include "net/buffer_pool.hpp"
#include "net/event_loop.hpp"
#include "net/tcp_env.hpp"
#include "storage/ledger_store.hpp"

namespace dl::obs {

namespace {
constexpr std::memory_order relaxed = std::memory_order_relaxed;
}

NodeExporter::NodeExporter(Registry& reg, ExporterSources src) : src_(src) {
  if (src_.node != nullptr) {
    n_ = src_.node->config().n;
    g_epoch_frontier_ = reg.gauge("dl_node_epoch_frontier",
                                  "epochs fully delivered (deliver_next)");
    g_dispersal_epoch_ = reg.gauge("dl_node_dispersal_epoch",
                                   "current dispersal (propose) epoch");
    c_delivered_blocks_ =
        reg.counter("dl_node_delivered_blocks_total", "blocks delivered");
    c_delivered_tx_ = reg.counter("dl_node_delivered_tx_total",
                                  "transactions in delivered blocks");
    c_delivered_bytes_ = reg.counter("dl_node_delivered_bytes_total",
                                     "payload bytes in delivered blocks");
    c_delivered_linked_ = reg.counter("dl_node_delivered_linked_total",
                                      "blocks delivered via inter-node links");
    c_proposed_ =
        reg.counter("dl_node_proposed_blocks_total", "own blocks proposed");
    c_proposed_empty_ = reg.counter("dl_node_proposed_empty_total",
                                    "empty blocks proposed (back-pressure)");
    c_own_dropped_ = reg.counter("dl_node_own_blocks_dropped_total",
                                 "own blocks not BA-committed");
    c_bad_uploader_ = reg.counter("dl_node_bad_uploader_blocks_total",
                                  "blocks resolved as BAD_UPLOADER");
    c_vid_chunks_sent_ =
        reg.counter("dl_node_vid_chunks_sent_total", "VID chunks sent");
    c_vid_chunks_recv_ = reg.counter("dl_node_vid_chunks_received_total",
                                     "VID chunks received");
    c_return_chunks_sent_ = reg.counter("dl_node_return_chunks_sent_total",
                                        "retrieval chunks served to peers");
    c_return_chunks_recv_ = reg.counter(
        "dl_node_return_chunks_received_total", "retrieval chunks received");
    c_ba_sent_ =
        reg.counter("dl_node_ba_msgs_sent_total", "BA protocol messages sent");
    c_ba_recv_ = reg.counter("dl_node_ba_msgs_received_total",
                             "BA protocol messages received");
    c_ba_decisions_ = reg.counter("dl_node_ba_decisions_total",
                                  "BA instances decided locally");
    c_recovered_epochs_ = reg.counter("dl_node_recovered_epochs_total",
                                      "epochs replayed from the local store");
    c_caught_up_epochs_ = reg.counter("dl_node_caught_up_epochs_total",
                                      "epochs installed via coded catch-up");
    c_catch_up_rounds_ =
        reg.counter("dl_node_catch_up_rounds_total", "catch-up pull rounds");
    c_catch_up_msgs_ = reg.counter("dl_node_catch_up_msgs_received_total",
                                   "catch-up protocol messages received");
    g_input_queue_bytes_ = reg.gauge(
        "dl_node_input_queue_bytes",
        "submitted-but-not-proposed transaction backlog (wire bytes)");
    g_live_epochs_ = reg.gauge("dl_node_live_epochs",
                               "epochs holding VID/BA state (not retired)");
    g_retired_floor_ = reg.gauge("dl_node_retired_floor",
                                 "epochs below this have been retired");
  }

  if (src_.env != nullptr && src_.node != nullptr) {
    peers_.resize(static_cast<std::size_t>(n_));
    const int self = src_.node->config().self;
    for (int id = 0; id < n_; ++id) {
      if (id == self) continue;
      const std::string l = "peer=\"" + std::to_string(id) + "\"";
      PeerSeries& p = peers_[static_cast<std::size_t>(id)];
      p.connected = reg.gauge("dl_peer_connected", "1 while connected", l);
      p.queued_bytes =
          reg.gauge("dl_peer_queued_bytes", "outbound write-queue bytes", l);
      p.sent_bytes =
          reg.counter("dl_peer_sent_bytes_total", "frame bytes sent", l);
      p.recv_bytes =
          reg.counter("dl_peer_recv_bytes_total", "frame bytes received", l);
      p.sent_frames = reg.counter("dl_peer_sent_frames_total", "frames sent", l);
      p.recv_frames =
          reg.counter("dl_peer_recv_frames_total", "frames received", l);
      p.dropped_bytes = reg.counter("dl_peer_dropped_bytes_total",
                                    "bytes rejected by the queue cap", l);
      p.reconnects = reg.counter("dl_peer_reconnects_total",
                                 "connection re-establishments", l);
      p.shaper_waits = reg.counter("dl_peer_shaper_waits_total",
                                   "drain pauses waiting on the bucket", l);
    }
    c_shaper_granted_ = reg.counter("dl_shaper_granted_bytes_total",
                                    "bytes granted through egress buckets");
    c_shaper_lost_frames_ = reg.counter("dl_shaper_lost_frames_total",
                                        "frames dropped by the loss process");
    c_shaper_lost_bytes_ = reg.counter("dl_shaper_lost_bytes_total",
                                       "bytes dropped by the loss process");
    c_shaper_throttles_ = reg.counter("dl_shaper_throttle_waits_total",
                                      "take() calls that returned 0");
  }

  if (src_.home_loop != nullptr) {
    const std::string l = "loop=\"home\"";
    c_loop_polls_ = reg.counter("dl_loop_polls_total", "epoll_wait returns", l);
    c_loop_wakes_ =
        reg.counter("dl_loop_wakes_total", "cross-thread eventfd kicks", l);
    c_loop_drains_ = reg.counter("dl_loop_drains_total",
                                 "mailbox drain passes that ran tasks", l);
    c_loop_tasks_ =
        reg.counter("dl_loop_tasks_total", "posted tasks executed", l);
    c_loop_timers_ =
        reg.counter("dl_loop_timers_total", "timer callbacks fired", l);
    g_loop_last_drain_ = reg.gauge("dl_loop_last_drain_tasks",
                                   "tasks consumed by the most recent drain "
                                   "(mailbox depth proxy)",
                                   l);
  }

  c_pool_fresh_ = reg.counter("dl_bufpool_fresh_allocs_total",
                              "buffers served by new[]");
  c_pool_hits_ =
      reg.counter("dl_bufpool_hits_total", "buffers served from a free list");
  c_pool_releases_ = reg.counter("dl_bufpool_releases_total",
                                 "buffers returned to a free list");
  c_pool_huge_ = reg.counter("dl_bufpool_huge_allocs_total",
                             "above-largest-class allocations (not pooled)");

  if (src_.gateway != nullptr) {
    c_gw_accepted_ = reg.counter("dl_gateway_accepted_total",
                                 "client sockets past ClientHello");
    g_gw_active_ =
        reg.gauge("dl_gateway_active_clients", "currently connected clients");
    c_gw_submits_ =
        reg.counter("dl_gateway_submits_total", "SubmitTx frames received");
    c_gw_commits_ = reg.counter("dl_gateway_commits_notified_total",
                                "TxCommitted frames queued");
    c_gw_clientless_ = reg.counter("dl_gateway_commits_clientless_total",
                                   "commits whose owner was gone");
    c_gw_slow_ = reg.counter("dl_gateway_disconnects_slow_total",
                             "clients dropped for slow reading");
    c_gw_bad_ = reg.counter("dl_gateway_disconnects_bad_total",
                            "clients dropped for protocol violations");
    c_mp_admitted_ =
        reg.counter("dl_mempool_admitted_total", "transactions admitted");
    c_mp_admitted_bytes_ =
        reg.counter("dl_mempool_admitted_bytes_total", "payload bytes admitted");
    c_mp_drop_dup_ = reg.counter("dl_mempool_dropped_total",
                                 "admission drops by cause", "cause=\"duplicate\"");
    c_mp_drop_full_ = reg.counter("dl_mempool_dropped_total",
                                  "admission drops by cause", "cause=\"full\"");
    c_mp_drop_oversize_ =
        reg.counter("dl_mempool_dropped_total", "admission drops by cause",
                    "cause=\"oversize\"");
    c_mp_committed_ = reg.counter("dl_mempool_committed_total",
                                  "tracked transactions matched to a block");
    c_mp_replays_ = reg.counter("dl_mempool_commit_replays_total",
                                "resubmits answered from the committed ring");
  }

  if (src_.store != nullptr) {
    c_st_records_ =
        reg.counter("dl_store_appended_records_total", "records staged");
    c_st_bytes_ = reg.counter("dl_store_appended_bytes_total", "bytes staged");
    c_st_drains_ = reg.counter("dl_store_drains_total", "drain_io passes");
    c_st_fsyncs_ = reg.counter("dl_store_fsyncs_total", "segment fsyncs");
    c_st_segments_ =
        reg.counter("dl_store_segments_created_total", "segments created");
  }

  reg.add_sample_hook([this] { refresh(); });
}

void NodeExporter::refresh() {
  if (src_.node != nullptr) {
    const core::NodeStats& s = src_.node->stats();
    g_epoch_frontier_->set(static_cast<std::int64_t>(s.delivered_epochs));
    g_dispersal_epoch_->set(
        static_cast<std::int64_t>(s.current_dispersal_epoch));
    c_delivered_blocks_->set(s.delivered_blocks);
    c_delivered_tx_->set(s.delivered_tx_count);
    c_delivered_bytes_->set(s.delivered_payload_bytes);
    c_delivered_linked_->set(s.delivered_linked_blocks);
    c_proposed_->set(s.proposed_blocks);
    c_proposed_empty_->set(s.proposed_empty_blocks);
    c_own_dropped_->set(s.own_blocks_dropped);
    c_bad_uploader_->set(s.bad_uploader_blocks);
    c_vid_chunks_sent_->set(s.vid_chunks_sent);
    c_vid_chunks_recv_->set(s.vid_chunks_received);
    c_return_chunks_sent_->set(s.return_chunks_sent);
    c_return_chunks_recv_->set(s.return_chunks_received);
    c_ba_sent_->set(s.ba_msgs_sent);
    c_ba_recv_->set(s.ba_msgs_received);
    c_ba_decisions_->set(s.ba_decisions);
    c_recovered_epochs_->set(s.recovered_epochs);
    c_caught_up_epochs_->set(s.caught_up_epochs);
    c_catch_up_rounds_->set(s.catch_up_rounds);
    c_catch_up_msgs_->set(s.catch_up_msgs_received);
    g_input_queue_bytes_->set(
        static_cast<std::int64_t>(src_.node->input_queue_bytes()));
    g_live_epochs_->set(static_cast<std::int64_t>(src_.node->live_epochs()));
    g_retired_floor_->set(
        static_cast<std::int64_t>(src_.node->retired_floor()));
  }

  if (src_.env != nullptr && !peers_.empty()) {
    for (int id = 0; id < n_; ++id) {
      PeerSeries& p = peers_[static_cast<std::size_t>(id)];
      if (p.sent_bytes == nullptr) continue;  // self
      const net::TcpEnv::PeerStats st = src_.env->peer_stats(id);
      p.connected->set(st.connected ? 1 : 0);
      p.queued_bytes->set(static_cast<std::int64_t>(st.queued_bytes));
      p.sent_bytes->set(st.sent_bytes);
      p.recv_bytes->set(st.recv_bytes);
      p.sent_frames->set(st.sent_frames);
      p.recv_frames->set(st.recv_frames);
      p.dropped_bytes->set(st.dropped_bytes);
      p.reconnects->set(st.reconnects);
      p.shaper_waits->set(st.shaper_waits);
    }
    const net::LinkShaper::Stats sh = src_.env->shaper_totals();
    c_shaper_granted_->set(sh.shaped_bytes);
    c_shaper_lost_frames_->set(sh.lost_frames);
    c_shaper_lost_bytes_->set(sh.lost_bytes);
    c_shaper_throttles_->set(sh.throttle_waits);
  }

  if (src_.home_loop != nullptr) {
    const auto& st = src_.home_loop->stats();
    c_loop_polls_->set(st.polls.load(relaxed));
    c_loop_wakes_->set(st.wakes.load(relaxed));
    c_loop_drains_->set(st.drains.load(relaxed));
    c_loop_tasks_->set(st.tasks.load(relaxed));
    c_loop_timers_->set(st.timers.load(relaxed));
    g_loop_last_drain_->set(
        static_cast<std::int64_t>(st.last_drain_tasks.load(relaxed)));
  }

  const net::BufferPool::Stats ps = net::BufferPool::stats();
  c_pool_fresh_->set(ps.fresh_allocs);
  c_pool_hits_->set(ps.pool_hits);
  c_pool_releases_->set(ps.releases);
  c_pool_huge_->set(ps.huge_allocs);

  if (src_.gateway != nullptr) {
    const client::Gateway::Stats& gs = src_.gateway->stats();
    c_gw_accepted_->set(gs.accepted);
    g_gw_active_->set(static_cast<std::int64_t>(gs.active.load()));
    c_gw_submits_->set(gs.submits);
    c_gw_commits_->set(gs.commits_notified);
    c_gw_clientless_->set(gs.commits_clientless);
    c_gw_slow_->set(gs.disconnects_slow);
    c_gw_bad_->set(gs.disconnects_bad);
    const client::MempoolStats& ms = src_.gateway->mempool().stats();
    c_mp_admitted_->set(ms.admitted);
    c_mp_admitted_bytes_->set(ms.admitted_bytes);
    c_mp_drop_dup_->set(ms.dropped_duplicate);
    c_mp_drop_full_->set(ms.dropped_full);
    c_mp_drop_oversize_->set(ms.dropped_oversize);
    c_mp_committed_->set(ms.committed);
    c_mp_replays_->set(ms.committed_replays);
  }

  if (src_.store != nullptr) {
    const storage::LedgerStore::Stats ss = src_.store->stats();
    c_st_records_->set(ss.appended_records);
    c_st_bytes_->set(ss.appended_bytes);
    c_st_drains_->set(ss.drains);
    c_st_fsyncs_->set(ss.fsyncs);
    c_st_segments_->set(ss.segments_created);
  }
}

std::string NodeExporter::delta_line(double now) {
  DeltaBase cur;
  cur.t = now;
  if (src_.node != nullptr) {
    const core::NodeStats& s = src_.node->stats();
    cur.delivered_epochs = s.delivered_epochs;
    cur.delivered_tx = s.delivered_tx_count;
  }
  if (src_.gateway != nullptr) {
    const client::Gateway::Stats& gs = src_.gateway->stats();
    cur.submits = gs.submits;
    const client::MempoolStats& ms = src_.gateway->mempool().stats();
    cur.admitted = ms.admitted;
    cur.drops = static_cast<std::uint64_t>(ms.dropped_duplicate) +
                ms.dropped_full + ms.dropped_oversize;
  }
  if (src_.env != nullptr) {
    for (int id = 0; id < n_; ++id) {
      const net::TcpEnv::PeerStats st = src_.env->peer_stats(id);
      cur.sent_bytes += st.sent_bytes;
      cur.recv_bytes += st.recv_bytes;
    }
  }
  if (src_.store != nullptr) {
    cur.fsyncs = src_.store->stats().fsyncs;
  }

  const DeltaBase prev = base_valid_ ? base_ : cur;
  const double dt = base_valid_ ? now - prev.t : 0.0;
  base_ = cur;
  base_valid_ = true;

  StatLine line;
  line.f("t", now);
  if (src_.node != nullptr) {
    line.kv("epochs", cur.delivered_epochs)
        .rate("tx", cur.delivered_tx - prev.delivered_tx, dt);
  }
  if (src_.gateway != nullptr) {
    line.rate("submits", cur.submits - prev.submits, dt)
        .rate("admits", cur.admitted - prev.admitted, dt)
        .kv("drops", cur.drops);
  }
  if (src_.env != nullptr) {
    line.rate("out", cur.sent_bytes - prev.sent_bytes, dt)
        .rate("in", cur.recv_bytes - prev.recv_bytes, dt);
  }
  if (src_.store != nullptr) {
    line.rate("fsyncs", cur.fsyncs - prev.fsyncs, dt);
  }
  return line.str();
}

}  // namespace dl::obs
