#include "merkle/merkle_tree.hpp"

#include <stdexcept>

#include "common/serial.hpp"

namespace dl {

namespace {

// Inner nodes hash tag || left || right — a fixed 65-byte message, which the
// single-pass tagged hasher folds in exactly two block compressions.
Hash inner_hash(const Hash& l, const Hash& r) {
  std::uint8_t lr[64];
  __builtin_memcpy(lr, l.v.data(), 32);
  __builtin_memcpy(lr + 32, r.v.data(), 32);
  return sha256_tagged(0x01, ByteView(lr, 64));
}

// One level up: pairs of nodes hash together, an odd last node with itself.
std::vector<Hash> parent_level(const std::vector<Hash>& level) {
  std::vector<Hash> next;
  next.reserve((level.size() + 1) / 2);
  for (std::size_t i = 0; i < level.size(); i += 2) {
    const Hash& l = level[i];
    const Hash& r = (i + 1 < level.size()) ? level[i + 1] : level[i];
    next.push_back(inner_hash(l, r));
  }
  return next;
}

// Index in range and sibling count equal to the tree depth for this leaf
// count — checked before any hashing.
bool proof_shape_ok(const MerkleProof& proof) {
  if (proof.leaf_count == 0 || proof.index >= proof.leaf_count) return false;
  std::size_t expected_depth = 0;
  for (std::size_t width = proof.leaf_count; width > 1; width = (width + 1) / 2) {
    ++expected_depth;
  }
  return proof.siblings.size() == expected_depth;
}

}  // namespace

Hash merkle_leaf_hash(ByteView leaf) { return sha256_tagged(0x00, leaf); }

std::vector<Hash> merkle_leaf_hashes(const std::vector<Bytes>& leaves) {
  std::vector<Hash> out;
  out.reserve(leaves.size());
  for (const Bytes& l : leaves) {
    out.push_back(sha256_tagged(0x00, ByteView(l.data(), l.size())));
  }
  return out;
}

MerkleTree::MerkleTree(const std::vector<Bytes>& leaves)
    : leaf_count_(static_cast<std::uint32_t>(leaves.size())) {
  if (leaves.empty()) throw std::invalid_argument("MerkleTree: no leaves");
  levels_.push_back(merkle_leaf_hashes(leaves));
  while (levels_.back().size() > 1) {
    levels_.push_back(parent_level(levels_.back()));
  }
  root_ = levels_.back()[0];
}

MerkleProof MerkleTree::prove(std::uint32_t index) const {
  if (index >= leaf_count_) throw std::out_of_range("MerkleTree::prove: bad index");
  MerkleProof p;
  p.index = index;
  p.leaf_count = leaf_count_;
  std::size_t i = index;
  for (std::size_t lvl = 0; lvl + 1 < levels_.size(); ++lvl) {
    const std::vector<Hash>& level = levels_[lvl];
    const std::size_t sib = (i % 2 == 0) ? i + 1 : i - 1;
    p.siblings.push_back(sib < level.size() ? level[sib] : level[i]);
    i /= 2;
  }
  return p;
}

bool merkle_verify(const Hash& root, ByteView leaf, const MerkleProof& proof) {
  return proof_shape_ok(proof) &&
         merkle_verify_path(root, merkle_leaf_hash(leaf), proof);
}

bool merkle_verify_path(const Hash& root, const Hash& leaf_hash,
                        const MerkleProof& proof) {
  if (!proof_shape_ok(proof)) return false;
  Hash acc = leaf_hash;
  std::size_t i = proof.index;
  std::size_t width = proof.leaf_count;
  for (const Hash& sib : proof.siblings) {
    // An odd rightmost node is hashed with itself; enforce that the proof
    // actually supplies the self-hash there, otherwise positions could be
    // forged.
    const bool is_right = (i % 2 == 1);
    const bool has_sibling = is_right || i + 1 < width;
    if (!has_sibling && !(sib == acc)) return false;
    acc = is_right ? inner_hash(sib, acc) : inner_hash(acc, has_sibling ? sib : acc);
    i /= 2;
    width = (width + 1) / 2;
  }
  return acc == root;
}

Hash merkle_root_from_leaf_hashes(std::vector<Hash> leaf_hashes) {
  if (leaf_hashes.empty()) {
    throw std::invalid_argument("merkle_root_from_leaf_hashes: no leaves");
  }
  while (leaf_hashes.size() > 1) leaf_hashes = parent_level(leaf_hashes);
  return leaf_hashes[0];
}

Hash merkle_root(const std::vector<Bytes>& leaves) {
  return merkle_root_from_leaf_hashes(merkle_leaf_hashes(leaves));
}

Bytes MerkleProof::encode() const {
  Writer w;
  w.u32(index);
  w.u32(leaf_count);
  w.u8(static_cast<std::uint8_t>(siblings.size()));
  for (const Hash& h : siblings) w.raw(h.view());
  return std::move(w).take();
}

bool MerkleProof::decode(ByteView in, MerkleProof& out) {
  Reader r(in);
  out.index = r.u32();
  out.leaf_count = r.u32();
  const std::uint8_t n = r.u8();
  if (!r.ok() || n > 64) return false;
  out.siblings.assign(n, Hash{});
  for (std::uint8_t i = 0; i < n; ++i) {
    const ByteView raw = r.raw_view(32);
    if (!r.ok()) return false;
    std::copy(raw.begin(), raw.end(), out.siblings[i].v.begin());
  }
  return r.done();
}

}  // namespace dl
