// AVID-M protocol properties (§3.1 of the paper): Termination, Agreement,
// Availability, Correctness — under random delivery schedules, crash faults,
// and Byzantine (equivocating / inconsistently-encoding) dispersers.
#include <gtest/gtest.h>

#include "automaton_harness.hpp"
#include "common/rng.hpp"
#include "erasure/reed_solomon.hpp"
#include "merkle/merkle_tree.hpp"
#include "vid/avid_m.hpp"

namespace dl::vid {
namespace {

using test::Router;

// A cluster of AVID-M servers plus per-node retrievers, wired to a Router.
struct Cluster {
  Params p;
  std::vector<AvidMServer> servers;
  std::vector<AvidMRetriever> retrievers;
  Router router;

  Cluster(int n, int f, std::uint64_t seed) : p{n, f}, router(n, seed) {
    for (int i = 0; i < n; ++i) {
      servers.emplace_back(p, i);
      retrievers.emplace_back(p, i);
    }
    router.set_handler([this](int from, int to, const Envelope& env) {
      Outbox out;
      if (env.kind == MsgKind::VidReturnChunk) {
        ReturnChunkMsg m;
        if (ReturnChunkMsg::decode(env.body, m)) {
          retrievers[static_cast<std::size_t>(to)].handle_return_chunk(from, m);
        }
        return;
      }
      servers[static_cast<std::size_t>(to)].handle(from, env.kind, env.body, out);
      router.push(to, out);
    });
  }

  // Client-side dispersal from node `who`.
  void disperse(int who, ByteView block) {
    auto chunks = avid_m_disperse(p, block);
    Outbox out;
    for (int i = 0; i < p.n; ++i) {
      OutMsg m;
      m.to = i;
      m.env.kind = MsgKind::VidChunk;
      m.env.body = chunks[static_cast<std::size_t>(i)].encode();
      out.push_back(std::move(m));
    }
    router.push(who, out);
  }

  void retrieve(int who) {
    Outbox out;
    retrievers[static_cast<std::size_t>(who)].begin(out);
    router.push(who, out);
  }

  int complete_count() const {
    int c = 0;
    for (const auto& s : servers) c += s.complete() ? 1 : 0;
    return c;
  }
};

struct AvidMParam {
  int n;
  int f;
  std::uint64_t seed;
};

class AvidMP : public ::testing::TestWithParam<AvidMParam> {};

TEST_P(AvidMP, TerminationAllCorrect) {
  const auto [n, f, seed] = GetParam();
  Cluster c(n, f, seed);
  c.disperse(0, random_bytes(5000, seed));
  c.router.run();
  EXPECT_EQ(c.complete_count(), n);
}

TEST_P(AvidMP, TerminationWithCrashFaults) {
  const auto [n, f, seed] = GetParam();
  Cluster c(n, f, seed);
  for (int i = 0; i < f; ++i) c.router.mute(n - 1 - i);  // f silent servers
  c.disperse(0, random_bytes(3000, seed));
  c.router.run();
  // All non-muted correct servers complete.
  for (int i = 0; i < n - f; ++i) {
    EXPECT_TRUE(c.servers[static_cast<std::size_t>(i)].complete()) << i;
  }
}

TEST_P(AvidMP, AvailabilityAndCorrectness) {
  const auto [n, f, seed] = GetParam();
  Cluster c(n, f, seed);
  const Bytes block = random_bytes(7777, seed + 1);
  c.disperse(0, block);
  c.router.run();
  ASSERT_EQ(c.complete_count(), n);
  for (int i = 0; i < n; ++i) c.retrieve(i);
  c.router.run();
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(c.retrievers[static_cast<std::size_t>(i)].done()) << i;
    EXPECT_FALSE(c.retrievers[static_cast<std::size_t>(i)].bad_uploader());
    EXPECT_EQ(c.retrievers[static_cast<std::size_t>(i)].result(), block) << i;
  }
}

TEST_P(AvidMP, RetrievalWithFCrashedServers) {
  const auto [n, f, seed] = GetParam();
  Cluster c(n, f, seed);
  const Bytes block = random_bytes(2500, seed + 2);
  c.disperse(0, block);
  c.router.run();
  // Crash f servers AFTER dispersal; retrieval must still work.
  for (int i = 0; i < f; ++i) c.router.mute(i);
  c.retrieve(n - 1);
  c.router.run();
  ASSERT_TRUE(c.retrievers[static_cast<std::size_t>(n - 1)].done());
  EXPECT_EQ(c.retrievers[static_cast<std::size_t>(n - 1)].result(), block);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AvidMP,
    ::testing::Values(AvidMParam{4, 1, 1}, AvidMParam{4, 1, 2},
                      AvidMParam{7, 2, 3}, AvidMParam{10, 3, 4},
                      AvidMParam{16, 5, 5}, AvidMParam{16, 5, 6},
                      AvidMParam{31, 10, 7}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.n) + "f" +
             std::to_string(info.param.f) + "s" + std::to_string(info.param.seed);
    });

// --- Byzantine disperser scenarios -----------------------------------------

// Builds chunk messages where the chunks are NOT a consistent Reed-Solomon
// codeword (each "chunk" is arbitrary), yet all carry valid Merkle proofs.
std::vector<ChunkMsg> inconsistent_disperse(const Params& p, std::uint64_t seed) {
  std::vector<Bytes> garbage;
  for (int i = 0; i < p.n; ++i) {
    garbage.push_back(random_bytes(128, seed + static_cast<std::uint64_t>(i)));
  }
  const MerkleTree tree(garbage);
  std::vector<ChunkMsg> out;
  for (int i = 0; i < p.n; ++i) {
    out.push_back(ChunkMsg{tree.root(), garbage[static_cast<std::size_t>(i)],
                           tree.prove(static_cast<std::uint32_t>(i))});
  }
  return out;
}

TEST(AvidMByzantine, InconsistentEncodingYieldsBadUploaderEverywhere) {
  // Correctness under a malicious disperser: every correct client must
  // retrieve the SAME result — the BAD_UPLOADER sentinel.
  const Params p{7, 2};
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Cluster c(p.n, p.f, seed);
    auto msgs = inconsistent_disperse(p, seed);
    for (int i = 0; i < p.n; ++i) {
      Envelope env;
      env.kind = MsgKind::VidChunk;
      env.body = msgs[static_cast<std::size_t>(i)].encode();
      c.router.inject(/*from=*/0, /*to=*/i, std::move(env));
    }
    c.router.run();
    EXPECT_EQ(c.complete_count(), p.n);  // dispersal completes regardless
    for (int i = 0; i < p.n; ++i) c.retrieve(i);
    c.router.run();
    for (int i = 0; i < p.n; ++i) {
      ASSERT_TRUE(c.retrievers[static_cast<std::size_t>(i)].done());
      EXPECT_TRUE(c.retrievers[static_cast<std::size_t>(i)].bad_uploader());
      EXPECT_EQ(to_string(c.retrievers[static_cast<std::size_t>(i)].result()),
                kBadUploader);
    }
  }
}

TEST(AvidMByzantine, EquivocatingRootsCannotBothComplete) {
  // Disperser sends chunks of block A to half the servers and block B to
  // the rest. At most one root can gather N-f GotChunks, so the instance
  // either completes on one root or not at all — never on two.
  const Params p{10, 3};
  Cluster c(p.n, p.f, 42);
  const auto a = avid_m_disperse(p, random_bytes(1000, 1));
  const auto b = avid_m_disperse(p, random_bytes(1000, 2));
  for (int i = 0; i < p.n; ++i) {
    Envelope env;
    env.kind = MsgKind::VidChunk;
    env.body = (i % 2 == 0 ? a : b)[static_cast<std::size_t>(i)].encode();
    c.router.inject(0, i, std::move(env));
  }
  c.router.run();
  std::set<std::string> roots;
  for (const auto& s : c.servers) {
    if (s.complete()) roots.insert(s.chunk_root().hex());
  }
  EXPECT_LE(roots.size(), 1u);
}

TEST(AvidMByzantine, AgreementOnRootAcrossServers) {
  const Params p{7, 2};
  Cluster c(p.n, p.f, 9);
  c.disperse(0, random_bytes(500, 3));
  c.router.run();
  ASSERT_EQ(c.complete_count(), p.n);
  for (int i = 1; i < p.n; ++i) {
    EXPECT_EQ(c.servers[static_cast<std::size_t>(i)].chunk_root(),
              c.servers[0].chunk_root());
  }
}

TEST(AvidMByzantine, ForgedGotChunkCannotForceCompletion) {
  // f Byzantine servers spam GotChunk/Ready for a root nobody dispersed;
  // correct servers must not complete.
  const Params p{4, 1};
  Cluster c(p.n, p.f, 11);
  const Hash fake = sha256(bytes_of("nonexistent"));
  for (int rep = 0; rep < 3; ++rep) {  // duplicates must be ignored too
    Envelope got;
    got.kind = MsgKind::VidGotChunk;
    got.body = RootMsg{fake}.encode();
    Envelope ready;
    ready.kind = MsgKind::VidReady;
    ready.body = RootMsg{fake}.encode();
    for (int to = 0; to < p.n; ++to) {
      c.router.inject(3, to, got);     // node 3 is Byzantine
      c.router.inject(3, to, ready);
    }
  }
  c.router.run();
  EXPECT_EQ(c.complete_count(), 0);
}

TEST(AvidMByzantine, WrongIndexChunkRejected) {
  // A chunk with a valid proof for position j must be rejected by server i.
  const Params p{4, 1};
  AvidMServer server(p, /*self=*/2);
  const auto msgs = avid_m_disperse(p, random_bytes(100, 4));
  Outbox out;
  server.handle_chunk(msgs[1], out);  // proof is for index 1, server is 2
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(server.has_chunk());
  server.handle_chunk(msgs[2], out);
  EXPECT_TRUE(server.has_chunk());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].env.kind, MsgKind::VidGotChunk);
}

TEST(AvidMByzantine, NonCanonicalDecodedFromStripeYieldsBadUploader) {
  // The re-encode check reuses the leaf hash of a received chunk only when
  // the re-encoding reproduces that chunk byte for byte. Here the disperser
  // commits to a data stripe with a nonzero pad byte: it still decodes to
  // the block, but the canonical re-encoding differs from it — and only
  // there, at an index the retriever received (the parity stays canonical).
  const Params p{4, 1};                      // K = 2 data stripes
  const Bytes block = random_bytes(101, 9);  // (101 + 4) odd: stripe 1 is padded
  const ReedSolomon rs(p.data_shards(), p.n);
  std::vector<Bytes> chunks = rs.encode(block);
  chunks[1].back() ^= 0x5A;
  ASSERT_EQ(rs.decode({chunks[0], chunks[1], {}, {}}), block);
  const MerkleTree tree(chunks);
  AvidMRetriever r(p, 0);
  for (std::uint32_t i : {0u, 1u}) {
    r.handle_return_chunk(static_cast<int>(i),
                          ChunkMsg{tree.root(), chunks[i], tree.prove(i)});
  }
  ASSERT_TRUE(r.done());
  EXPECT_TRUE(r.bad_uploader());
  EXPECT_EQ(to_string(r.result()), kBadUploader);
}

TEST(AvidM, ChunksAfterDecodeStartedOrFromASeenSenderAreRejected) {
  const Params p{4, 1};
  const auto msgs = avid_m_disperse(p, random_bytes(500, 3));
  AvidMRetriever r(p, 0);
  EXPECT_FALSE(r.accepting(-1));
  EXPECT_FALSE(r.accepting(p.n));
  EXPECT_TRUE(r.accepting(0));
  EXPECT_FALSE(r.offer_chunk(0, msgs[0]));
  EXPECT_FALSE(r.accepting(0));  // sender already seen
  EXPECT_FALSE(r.offer_chunk(0, msgs[0]));
  EXPECT_TRUE(r.accepting(2));
  EXPECT_TRUE(r.offer_chunk(1, msgs[1]));  // K chunks share a root: decode
  EXPECT_FALSE(r.accepting(2));            // decode started
  EXPECT_FALSE(r.offer_chunk(2, msgs[2]));

  // The job carries exactly the accepted chunks, with their verified leaves.
  const DecodeJob job = r.take_decode_job();
  EXPECT_EQ(job.slots[0], msgs[0].chunk);
  EXPECT_EQ(job.slots[1], msgs[1].chunk);
  EXPECT_TRUE(job.slots[2].empty());
  EXPECT_TRUE(job.slots[3].empty());
  EXPECT_EQ(job.leaves[0], merkle_leaf_hash(msgs[0].chunk));
  EXPECT_EQ(job.leaves[1], merkle_leaf_hash(msgs[1].chunk));
  r.complete(avid_m_run_decode(job));
  ASSERT_TRUE(r.done());
  EXPECT_FALSE(r.bad_uploader());
  EXPECT_FALSE(r.accepting(3));  // done
  EXPECT_FALSE(r.offer_chunk(3, msgs[3]));
}

TEST(AvidMByzantine, MalformedBodiesIgnored) {
  const Params p{4, 1};
  AvidMServer server(p, 0);
  Outbox out;
  EXPECT_FALSE(server.handle(1, MsgKind::VidChunk, bytes_of("garbage"), out));
  EXPECT_FALSE(server.handle(1, MsgKind::VidReady, bytes_of("x"), out));
  EXPECT_FALSE(server.handle(1, MsgKind::BaBval, {}, out));  // wrong kind
  EXPECT_TRUE(out.empty());
}

TEST(AvidM, RequestBeforeCompleteIsDeferred) {
  const Params p{4, 1};
  Cluster c(p.n, p.f, 13);
  // Retrieve FIRST, then disperse: requests must be parked and answered
  // after completion (Fig. 4 "defer responding").
  const Bytes block = random_bytes(900, 5);
  c.retrieve(3);
  c.router.run();
  EXPECT_FALSE(c.retrievers[3].done());
  c.disperse(0, block);
  c.router.run();
  ASSERT_TRUE(c.retrievers[3].done());
  EXPECT_EQ(c.retrievers[3].result(), block);
}

// The retirement predicate of one server (self = 1, proposer = 0): it holds
// only once dispersal completed, every peer except the proposer asked, and
// nothing is left deferred.
TEST(AvidM, ServedEveryPeerTurnsTrueWithTheLastServedRequest) {
  const Params p{4, 1};
  const int proposer = 0, self = 1;
  const auto chunks = avid_m_disperse(p, random_bytes(900, 6));
  const Hash root = chunks[0].root;
  auto count_returns = [](const Outbox& out) {
    int k = 0;
    for (const OutMsg& m : out) k += m.env.kind == MsgKind::VidReturnChunk;
    return k;
  };
  auto complete = [&](AvidMServer& s, Outbox& out) {
    for (int from : {0, 2, 3}) s.handle_ready(from, RootMsg{root}, out);
  };

  // Every non-proposer asks while the server is still incomplete: the
  // requests are deferred, so nothing has been served yet.
  AvidMServer early(p, self);
  Outbox out;
  for (int from : {1, 2, 3}) early.handle_request_chunk(from, out);
  early.handle_chunk(chunks[static_cast<std::size_t>(self)], out);
  EXPECT_FALSE(early.served_every_peer(proposer));
  for (int from : {0, 2}) early.handle_ready(from, RootMsg{root}, out);
  EXPECT_FALSE(early.served_every_peer(proposer));
  out.clear();
  early.handle_ready(3, RootMsg{root}, out);  // completes; flushes the three
  EXPECT_TRUE(early.complete());
  EXPECT_EQ(count_returns(out), 3);
  EXPECT_TRUE(early.served_every_peer(proposer));

  // Complete but chunkless: requests stay deferred until the chunk lands.
  AvidMServer chunkless(p, self);
  out.clear();
  complete(chunkless, out);
  ASSERT_TRUE(chunkless.complete());
  for (int from : {1, 2, 3}) chunkless.handle_request_chunk(from, out);
  EXPECT_FALSE(chunkless.served_every_peer(proposer));
  out.clear();
  chunkless.handle_chunk(chunks[static_cast<std::size_t>(self)], out);
  EXPECT_EQ(count_returns(out), 3);
  EXPECT_TRUE(chunkless.served_every_peer(proposer));

  // Complete with its chunk: false while any non-proposer has not asked
  // (the proposer's own request counts for nothing), true on the last one.
  AvidMServer late(p, self);
  out.clear();
  late.handle_chunk(chunks[static_cast<std::size_t>(self)], out);
  complete(late, out);
  ASSERT_TRUE(late.complete());
  EXPECT_FALSE(late.served_every_peer(proposer));
  late.handle_request_chunk(proposer, out);
  EXPECT_FALSE(late.served_every_peer(proposer));
  late.handle_request_chunk(3, out);
  late.handle_request_chunk(self, out);
  EXPECT_FALSE(late.served_every_peer(proposer));
  out.clear();
  late.handle_request_chunk(2, out);
  EXPECT_EQ(count_returns(out), 1);
  EXPECT_TRUE(late.served_every_peer(proposer));
}

TEST(AvidM, DisperseChunkCount) {
  const Params p{16, 5};
  const auto msgs = avid_m_disperse(p, random_bytes(10000, 6));
  ASSERT_EQ(msgs.size(), 16u);
  // All chunks share one root and verify at their index.
  for (int i = 0; i < p.n; ++i) {
    EXPECT_EQ(msgs[static_cast<std::size_t>(i)].root, msgs[0].root);
    EXPECT_TRUE(merkle_verify(msgs[0].root, msgs[static_cast<std::size_t>(i)].chunk,
                              msgs[static_cast<std::size_t>(i)].proof));
  }
  // Chunk size ~ |B| / (N-2f) + header.
  EXPECT_EQ(msgs[0].chunk.size(), (10000u + 4 + 5) / 6);
}

TEST(AvidM, EmptyBlockDispersal) {
  const Params p{4, 1};
  Cluster c(p.n, p.f, 21);
  c.disperse(0, {});
  c.router.run();
  EXPECT_EQ(c.complete_count(), p.n);
  c.retrieve(1);
  c.router.run();
  ASSERT_TRUE(c.retrievers[1].done());
  EXPECT_TRUE(c.retrievers[1].result().empty());
  EXPECT_FALSE(c.retrievers[1].bad_uploader());
}

}  // namespace
}  // namespace dl::vid
