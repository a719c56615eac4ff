// Merkle tree over erasure-coded chunks — the AVID-M commitment.
//
// The tree binds both chunk *content* and chunk *position*: a proof for
// chunk i verifies only against index i, which AVID-M needs ("Ci is the i-th
// chunk under root r", Fig. 3/4 of the paper). Leaves are domain-separated
// from inner nodes (0x00 / 0x01 prefixes) to prevent second-preimage
// splicing attacks; an odd node at any level is paired with itself.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"

namespace dl {

// Sibling path from a leaf to the root. `siblings[0]` is the leaf's sibling.
struct MerkleProof {
  std::uint32_t index = 0;        // leaf position
  std::uint32_t leaf_count = 0;   // total leaves in the tree
  std::vector<Hash> siblings;

  Bytes encode() const;
  static bool decode(ByteView in, MerkleProof& out);
  std::size_t wire_size() const { return 8 + siblings.size() * 32; }

  bool operator==(const MerkleProof&) const = default;
};

class MerkleTree {
 public:
  // Builds the tree over `leaves` (at least one).
  explicit MerkleTree(const std::vector<Bytes>& leaves);

  const Hash& root() const { return root_; }
  std::uint32_t leaf_count() const { return leaf_count_; }

  // Proof that leaf `index` is at that position under root().
  MerkleProof prove(std::uint32_t index) const;

 private:
  std::uint32_t leaf_count_;
  // levels_[0] = leaf hashes, levels_.back() = {root}.
  std::vector<std::vector<Hash>> levels_;
  Hash root_;
};

// Hash of a leaf (domain-separated).
Hash merkle_leaf_hash(ByteView leaf);

// Batched leaf hashing: hashes of every leaf, in order. Equivalent to
// calling merkle_leaf_hash per leaf but runs the whole set through the
// dispatched single-pass tagged hasher — the shape MerkleTree construction
// and AVID-M chunk commitment use (N equal-size erasure-coded chunks).
std::vector<Hash> merkle_leaf_hashes(const std::vector<Bytes>& leaves);

// Recomputes the root implied by (`leaf`, `proof`) and compares with `root`.
// Returns false on any structural mismatch (wrong index, wrong depth).
// Equivalent to merkle_verify_path(root, merkle_leaf_hash(leaf), proof),
// except that a structurally bad proof is rejected before the leaf is hashed.
bool merkle_verify(const Hash& root, ByteView leaf, const MerkleProof& proof);

// The path half of merkle_verify, for a caller that keeps the leaf hash it
// verified (the AVID-M retriever reuses it in the re-encode check).
bool merkle_verify_path(const Hash& root, const Hash& leaf_hash,
                        const MerkleProof& proof);

// Root of the tree whose leaf hashes are `leaf_hashes` (at least one) —
// the same fold MerkleTree builds its levels with.
Hash merkle_root_from_leaf_hashes(std::vector<Hash> leaf_hashes);

// Convenience: root of a chunk set.
Hash merkle_root(const std::vector<Bytes>& leaves);

}  // namespace dl
