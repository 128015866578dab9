// Differential tests for the batched key crypto (crypto/keys_simd.h).
//
// Every compiled kernel path is forced in turn and its encrypt_keys /
// keys_at output compared byte for byte against a reference built from the
// original buffered construction — Sha256 streaming for the kdf,
// hmac_sha256 for the tag, ChaCha20::apply for the cipher — and against
// the one-edge encrypt_key / key_at. Batch lengths 0..40 walk every lane
// tail of the 8- and 16-lane kernels.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/ensure.h"
#include "common/rng.h"
#include "crypto/hmac.h"
#include "crypto/keys.h"
#include "crypto/keys_simd.h"

namespace rekey::crypto {
namespace {

// The construction as first written: SHA256("kdf" || kek) as the ChaCha20
// key, nonce msg_id || enc_id, tag = HMAC-SHA256(kek, ids || ciphertext).
EncryptedKey reference_encrypt(const SymmetricKey& kek,
                               const SymmetricKey& plain,
                               std::uint32_t msg_id, std::uint64_t enc_id) {
  Sha256 kdf;
  static const std::uint8_t label[] = {'k', 'd', 'f'};
  kdf.update(label);
  kdf.update(kek.bytes);
  const auto key = kdf.finish();
  std::array<std::uint8_t, 12> nonce{};
  for (int i = 0; i < 4; ++i)
    nonce[i] = static_cast<std::uint8_t>(msg_id >> (24 - 8 * i));
  for (int i = 0; i < 8; ++i)
    nonce[4 + i] = static_cast<std::uint8_t>(enc_id >> (56 - 8 * i));
  EncryptedKey out;
  out.ciphertext = plain.bytes;
  ChaCha20 cipher(key, nonce);
  cipher.apply(out.ciphertext);

  std::array<std::uint8_t, 28> msg{};
  std::memcpy(msg.data(), nonce.data(), nonce.size());
  std::memcpy(msg.data() + 12, out.ciphertext.data(), 16);
  const auto mac = hmac_sha256(kek.bytes, msg);
  out.tag = static_cast<std::uint16_t>(mac[0] << 8 | mac[1]);
  return out;
}

// KeyGenerator's stream: HMAC-SHA256(SHA256(seed), counter), truncated.
SymmetricKey reference_key(std::uint64_t seed, std::uint64_t counter) {
  std::array<std::uint8_t, 8> seed_be, ctr_be;
  for (int i = 0; i < 8; ++i) {
    seed_be[i] = static_cast<std::uint8_t>(seed >> (56 - 8 * i));
    ctr_be[i] = static_cast<std::uint8_t>(counter >> (56 - 8 * i));
  }
  const auto mac = hmac_sha256(Sha256::hash(seed_be), ctr_be);
  SymmetricKey k;
  std::memcpy(k.bytes.data(), mac.data(), k.bytes.size());
  return k;
}

SymmetricKey random_key(Rng& rng) {
  SymmetricKey k;
  for (auto& b : k.bytes) b = static_cast<std::uint8_t>(rng.next_u64());
  return k;
}

// Restores the active path when a test ends.
class PathGuard {
 public:
  explicit PathGuard(KeyBatchPath p) : prev_(force_key_batch_path(p)) {}
  ~PathGuard() { force_key_batch_path(prev_); }

 private:
  KeyBatchPath prev_;
};

constexpr std::uint32_t kMsgIds[] = {0u, 1u, 63u, 0x7fffffffu, 0x80000000u,
                                     0xffffffffu};

class KeyBatchPaths : public ::testing::TestWithParam<KeyBatchPath> {
 protected:
  void SetUp() override {
    if (!key_batch_path_supported(GetParam()))
      GTEST_SKIP() << key_batch_path_name(GetParam())
                   << " not supported on this build/CPU";
  }
};

TEST_P(KeyBatchPaths, EncryptKeysMatchesReferenceForEveryTail) {
  PathGuard guard(GetParam());
  ASSERT_EQ(active_key_batch_path(), GetParam());
  Rng rng(0x5eed0001);
  for (const std::uint32_t msg_id : kMsgIds) {
    for (std::size_t n = 0; n <= 40; ++n) {
      std::vector<SymmetricKey> keks(n), plains(n);
      std::vector<WrapJob> jobs(n);
      for (std::size_t i = 0; i < n; ++i) {
        keks[i] = random_key(rng);
        plains[i] = random_key(rng);
        // High 32 bits set on odd lanes; extremes at the ends.
        std::uint64_t id = rng.next_u64();
        if (i % 2 == 0) id &= 0xffffffffu;
        if (i == 0) id = 0;
        if (i + 1 == n) id = std::numeric_limits<std::uint64_t>::max();
        jobs[i] = {&keks[i], &plains[i], id};
      }
      std::vector<EncryptedKey> out(n);
      encrypt_keys(jobs, msg_id, out);
      for (std::size_t i = 0; i < n; ++i) {
        const EncryptedKey want =
            reference_encrypt(keks[i], plains[i], msg_id, jobs[i].enc_id);
        ASSERT_EQ(out[i], want) << "n=" << n << " lane=" << i
                                << " msg_id=" << msg_id;
        ASSERT_EQ(encrypt_key(keks[i], plains[i], msg_id, jobs[i].enc_id),
                  want);
      }
    }
  }
}

TEST_P(KeyBatchPaths, SharedKeysAndAliasedPlainsStayLaneIndependent) {
  // One kek wrapping many plains (and the same plain under many keks) is
  // the payload's shape: d children share a parent key.
  PathGuard guard(GetParam());
  Rng rng(0x5eed0002);
  const SymmetricKey parent = random_key(rng);
  std::vector<SymmetricKey> children(37);
  for (auto& c : children) c = random_key(rng);
  std::vector<WrapJob> jobs;
  for (std::size_t i = 0; i < children.size(); ++i)
    jobs.push_back({&children[i], &parent, 4 * 1000003ull + 1 + i});
  std::vector<EncryptedKey> out(jobs.size());
  encrypt_keys(jobs, 7, out);
  for (std::size_t i = 0; i < jobs.size(); ++i)
    EXPECT_EQ(out[i], reference_encrypt(children[i], parent, 7,
                                        jobs[i].enc_id));
}

TEST_P(KeyBatchPaths, KeysAtMatchesKeyAtAndReference) {
  PathGuard guard(GetParam());
  const std::uint64_t seed = 0x0123456789abcdefull;
  const KeyGenerator gen(seed);
  Rng rng(0x5eed0003);
  for (std::size_t n = 0; n <= 40; ++n) {
    std::vector<std::uint64_t> counters(n);
    for (std::size_t i = 0; i < n; ++i)
      counters[i] = rng.next_u64() >> (i % 40);
    if (n > 0) counters[0] = 0;
    if (n > 1) counters[1] = 0xffffffffull;
    if (n > 2) counters[2] = 0x100000000ull;
    if (n > 3) counters[n - 1] = std::numeric_limits<std::uint64_t>::max();
    std::vector<SymmetricKey> out(n);
    gen.keys_at(counters, out);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], gen.key_at(counters[i])) << "n=" << n << " i=" << i;
      ASSERT_EQ(out[i], reference_key(seed, counters[i]));
    }
  }
}

TEST_P(KeyBatchPaths, BatchOutputDecryptsAndRejectsTampering) {
  PathGuard guard(GetParam());
  Rng rng(0x5eed0004);
  std::vector<SymmetricKey> keks(19), plains(19);
  std::vector<WrapJob> jobs;
  for (std::size_t i = 0; i < keks.size(); ++i) {
    keks[i] = random_key(rng);
    plains[i] = random_key(rng);
    jobs.push_back({&keks[i], &plains[i], rng.next_u64()});
  }
  std::vector<EncryptedKey> out(jobs.size());
  encrypt_keys(jobs, 0xffffffffu, out);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto plain =
        decrypt_key(keks[i], out[i], 0xffffffffu, jobs[i].enc_id);
    ASSERT_TRUE(plain.has_value());
    EXPECT_EQ(*plain, plains[i]);
    EncryptedKey bad = out[i];
    bad.ciphertext[i % 16] ^= 0x01;
    EXPECT_FALSE(
        decrypt_key(keks[i], bad, 0xffffffffu, jobs[i].enc_id).has_value());
    EXPECT_FALSE(decrypt_key(keks[i], out[i], 0xfffffffeu, jobs[i].enc_id)
                     .has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(AllPaths, KeyBatchPaths,
                         ::testing::Values(KeyBatchPath::kScalar,
                                           KeyBatchPath::kAvx2,
                                           KeyBatchPath::kAvx512),
                         [](const auto& info) {
                           return std::string(
                               key_batch_path_name(info.param));
                         });

TEST(KeyBatchDispatch, ScalarAlwaysSupportedAndNamesDistinct) {
  const auto paths = supported_key_batch_paths();
  ASSERT_FALSE(paths.empty());
  EXPECT_EQ(paths.front(), KeyBatchPath::kScalar);
  EXPECT_STRNE(key_batch_path_name(KeyBatchPath::kAvx2),
               key_batch_path_name(KeyBatchPath::kAvx512));
}

TEST(KeyBatchDispatch, MismatchedOutputSizeThrows) {
  SymmetricKey k;
  const std::vector<WrapJob> jobs(3, WrapJob{&k, &k, 1});
  std::vector<EncryptedKey> out(2);
  EXPECT_THROW(encrypt_keys(jobs, 1, out), EnsureError);
  const KeyGenerator gen(1);
  const std::vector<std::uint64_t> counters(3, 0);
  std::vector<SymmetricKey> keys(4);
  EXPECT_THROW(gen.keys_at(counters, keys), EnsureError);
}

}  // namespace
}  // namespace rekey::crypto
