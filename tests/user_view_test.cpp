// UserKeyView unit tests: id tracking, key learning, stale-key handling,
// and robustness against messages that do not concern the user.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/ensure.h"
#include "common/rng.h"
#include "keytree/user_view.h"

namespace rekey::tree {
namespace {

crypto::KeyGenerator gen(42);

std::pair<NodeId, crypto::SymmetricKey> cred(NodeId slot,
                                             const crypto::SymmetricKey& k) {
  return {slot, k};
}

TEST(UserKeyView, RequiresIndividualKey) {
  const auto k = gen.next();
  const std::pair<NodeId, crypto::SymmetricKey> wrong{7, k};
  EXPECT_THROW(UserKeyView(1, /*slot=*/9, 4, std::span(&wrong, 1)),
               EnsureError);
}

TEST(UserKeyView, HoldsInitialKeys) {
  const auto individual = gen.next();
  const auto aux = gen.next();
  const std::vector<std::pair<NodeId, crypto::SymmetricKey>> keys{
      cred(9, individual), cred(2, aux)};
  UserKeyView v(1, 9, 4, keys);
  EXPECT_EQ(v.num_keys(), 2u);
  EXPECT_EQ(v.key_at(9).value(), individual);
  EXPECT_EQ(v.key_at(2).value(), aux);
  EXPECT_FALSE(v.key_at(0).has_value());
  EXPECT_FALSE(v.group_key().has_value());
}

TEST(UserKeyView, UpdateSlotNoChange) {
  const auto individual = gen.next();
  const std::vector<std::pair<NodeId, crypto::SymmetricKey>> keys{
      cred(9, individual)};
  UserKeyView v(1, 9, 4, keys);
  v.update_slot(/*max_kid=*/4);  // 9 in (4, 20]: unchanged
  EXPECT_EQ(v.id(), 9u);
  EXPECT_EQ(v.key_at(9).value(), individual);
}

TEST(UserKeyView, UpdateSlotMovesIndividualKey) {
  const auto individual = gen.next();
  const std::vector<std::pair<NodeId, crypto::SymmetricKey>> keys{
      cred(5, individual)};
  UserKeyView v(1, 5, 4, keys);
  v.update_slot(/*max_kid=*/5);  // node 5 split: user now at 21
  EXPECT_EQ(v.id(), 21u);
  EXPECT_FALSE(v.key_at(5).has_value());
  EXPECT_EQ(v.key_at(21).value(), individual);
}

TEST(UserKeyView, ApplyLearnsChainBottomUp) {
  // Path 21 -> 5 -> 1 -> 0 (d=4). View holds only the individual key;
  // encryptions deliver new keys for 5, 1, 0 encrypted along the chain.
  const auto individual = gen.next();
  const auto k5 = gen.next();
  const auto k1 = gen.next();
  const auto k0 = gen.next();
  std::vector<Encryption> encs;
  auto push = [&](NodeId enc_id, NodeId target,
                  const crypto::SymmetricKey& kek,
                  const crypto::SymmetricKey& plain) {
    Encryption e;
    e.enc_id = enc_id;
    e.target_id = target;
    e.payload = crypto::encrypt_key(kek, plain, /*msg=*/3, enc_id);
    encs.push_back(e);
  };
  push(21, 5, individual, k5);
  push(5, 1, k5, k1);
  push(1, 0, k1, k0);

  const std::vector<std::pair<NodeId, crypto::SymmetricKey>> keys{
      cred(21, individual)};
  UserKeyView v(1, 21, 4, keys);
  EXPECT_EQ(v.apply(3, /*max_kid=*/5, encs), 3u);
  EXPECT_EQ(v.key_at(5).value(), k5);
  EXPECT_EQ(v.key_at(1).value(), k1);
  EXPECT_EQ(v.group_key().value(), k0);
}

TEST(UserKeyView, IrrelevantEncryptionsIgnored) {
  const auto individual = gen.next();
  const auto other = gen.next();
  std::vector<Encryption> encs;
  Encryption e;
  e.enc_id = 7;  // not on the path of user 21
  e.target_id = 1;
  e.payload = crypto::encrypt_key(other, gen.next(), 1, 7);
  encs.push_back(e);
  const std::vector<std::pair<NodeId, crypto::SymmetricKey>> keys{
      cred(21, individual)};
  UserKeyView v(1, 21, 4, keys);
  EXPECT_EQ(v.apply(1, 5, encs), 0u);
  EXPECT_EQ(v.num_keys(), 1u);
}

TEST(UserKeyView, StaleKeyDecryptionRejectedByTag) {
  // An encryption produced under a *different* key than the view holds
  // must be skipped (tag mismatch), not mis-decrypted.
  const auto individual = gen.next();
  const auto real_key = gen.next();
  std::vector<Encryption> encs;
  Encryption e;
  e.enc_id = 21;
  e.target_id = 5;
  e.payload = crypto::encrypt_key(real_key, gen.next(), 1, 21);
  encs.push_back(e);
  const std::vector<std::pair<NodeId, crypto::SymmetricKey>> keys{
      cred(21, individual)};  // holds a different key for node 21
  UserKeyView v(1, 21, 4, keys);
  EXPECT_EQ(v.apply(1, 5, encs), 0u);
  EXPECT_FALSE(v.key_at(5).has_value());
}

TEST(UserKeyView, WrongMessageIdRejected) {
  const auto individual = gen.next();
  const auto k5 = gen.next();
  std::vector<Encryption> encs;
  Encryption e;
  e.enc_id = 21;
  e.target_id = 5;
  e.payload = crypto::encrypt_key(individual, k5, /*msg=*/1, 21);
  encs.push_back(e);
  const std::vector<std::pair<NodeId, crypto::SymmetricKey>> keys{
      cred(21, individual)};
  UserKeyView v(1, 21, 4, keys);
  // Replay under a different message id: nonce/tag mismatch.
  EXPECT_EQ(v.apply(/*msg_id=*/2, 5, encs), 0u);
}

TEST(UserKeyView, ReapplyingIsIdempotent) {
  const auto individual = gen.next();
  const auto k5 = gen.next();
  std::vector<Encryption> encs;
  Encryption e;
  e.enc_id = 21;
  e.target_id = 5;
  e.payload = crypto::encrypt_key(individual, k5, 1, 21);
  encs.push_back(e);
  const std::vector<std::pair<NodeId, crypto::SymmetricKey>> keys{
      cred(21, individual)};
  UserKeyView v(1, 21, 4, keys);
  EXPECT_EQ(v.apply(1, 5, encs), 1u);
  EXPECT_EQ(v.apply(1, 5, encs), 1u);  // learned again, same value
  EXPECT_EQ(v.key_at(5).value(), k5);
}

// The client decrypt path at scale: after a churn batch on a 2^15-member
// tree, every remaining member rebuilds the new group key from the
// encryptions its needs list names (the content of its ENC packet) and
// nothing else, every joined member does so from its individual key
// alone, and departed members never learn it.
TEST(UserKeyView, EveryMemberRebuildsGroupKeyAfterChurnAt2e15) {
  constexpr std::size_t kN = std::size_t{1} << 15;
  constexpr std::uint32_t kMsgId = 5;
  KeyTree tree(4, 77);
  tree.populate(kN);
  std::vector<UserKeyView> views;
  views.reserve(kN);
  for (MemberId m = 0; m < kN; ++m) {
    const NodeId slot = tree.slot_of(m);
    views.emplace_back(m, slot, 4, tree.keys_for_slot(slot));
  }
  Rng rng(15);
  std::vector<MemberId> leaves;
  for (const auto pick : rng.sample_without_replacement(kN, kN / 16))
    leaves.push_back(static_cast<MemberId>(pick));
  std::vector<MemberId> joins;
  for (std::size_t j = 0; j < kN / 16; ++j)
    joins.push_back(static_cast<MemberId>(kN + j));
  Marker marker(tree);
  const BatchUpdate update = marker.run(joins, leaves);
  const RekeyPayload payload = generate_rekey_payload(tree, update, kMsgId);
  const crypto::SymmetricKey root = tree.group_key();

  auto packet_for = [&](NodeId slot) {
    std::vector<Encryption> packet;
    for (const std::uint32_t i : payload.user_needs.needs_of(slot))
      packet.push_back(payload.encryptions[i]);
    return packet;
  };
  const std::set<MemberId> departed(leaves.begin(), leaves.end());
  std::size_t rebuilt = 0;
  for (MemberId m = 0; m < kN; ++m) {
    if (departed.count(m) != 0) continue;
    UserKeyView& view = views[m];
    view.apply(kMsgId, payload.max_kid, packet_for(tree.slot_of(m)));
    ASSERT_EQ(view.id(), tree.slot_of(m)) << "member " << m;
    ASSERT_EQ(view.group_key(), root) << "member " << m;
    ++rebuilt;
  }
  for (const MemberId m : joins) {
    const NodeId slot = tree.slot_of(m);
    const std::pair<NodeId, crypto::SymmetricKey> individual{
        slot, tree.key_of(slot)};
    UserKeyView view(m, slot, 4, std::span(&individual, 1));
    view.apply(kMsgId, payload.max_kid, packet_for(slot));
    ASSERT_EQ(view.group_key(), root) << "joined member " << m;
    ++rebuilt;
  }
  EXPECT_EQ(rebuilt, tree.num_users());
  // A departed member offered the whole message still cannot decrypt.
  for (std::size_t i = 0; i < 32; ++i) {
    UserKeyView& view = views[leaves[i]];
    view.apply(kMsgId, payload.max_kid, payload.encryptions);
    EXPECT_NE(view.group_key(), root) << "departed member " << leaves[i];
  }
}

}  // namespace
}  // namespace rekey::tree
