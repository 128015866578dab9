// Key material and the key-encryption primitive {k'}_k.
//
// Every key in the key tree (group key, auxiliary keys, individual keys) is
// a 16-byte symmetric key. A rekey message carries "encryptions": a new key
// encrypted under another key. On the wire an encryption entry is
//
//     4-byte encryption id | 16-byte ciphertext | 2-byte integrity tag
//
// i.e. 22 bytes — which yields the paper's 46 encryptions per 1027-byte ENC
// packet. The ChaCha20 nonce is derived deterministically from the rekey
// message id and the encryption id, so no IV travels on the wire; the tag is
// a truncated HMAC that lets a user detect a corrupted or mis-keyed entry.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>

#include "crypto/chacha20.h"
#include "crypto/sha256.h"

namespace rekey::crypto {

struct SymmetricKey {
  static constexpr std::size_t kSize = 16;
  std::array<std::uint8_t, kSize> bytes{};

  friend bool operator==(const SymmetricKey&, const SymmetricKey&) = default;
};

struct EncryptedKey {
  std::array<std::uint8_t, SymmetricKey::kSize> ciphertext{};
  std::uint16_t tag = 0;

  friend bool operator==(const EncryptedKey&, const EncryptedKey&) = default;
};

// Encrypt `plain` under `kek` for (rekey message `msg_id`, encryption
// `enc_id`). The (msg_id, enc_id) pair must be unique per kek, which the
// protocol guarantees: each key encrypts at most one key per rekey message.
EncryptedKey encrypt_key(const SymmetricKey& kek, const SymmetricKey& plain,
                         std::uint32_t msg_id, std::uint64_t enc_id);

// One edge of a batched encryption: {*plain} under *kek for `enc_id`.
// The pointers must stay valid for the duration of the encrypt_keys call.
struct WrapJob {
  const SymmetricKey* kek = nullptr;
  const SymmetricKey* plain = nullptr;
  std::uint64_t enc_id = 0;
};

// Batched encrypt_key: out[i] == encrypt_key(*jobs[i].kek, *jobs[i].plain,
// msg_id, jobs[i].enc_id), byte for byte. Edges run 16 (AVX-512) or 8
// (AVX2) to a kernel call, one per 32-bit vector lane, with short tails on
// the one-edge path (crypto/keys_simd.h). Requires out.size() ==
// jobs.size(). Safe to call concurrently on disjoint outputs.
void encrypt_keys(std::span<const WrapJob> jobs, std::uint32_t msg_id,
                  std::span<EncryptedKey> out);

// Decrypt and verify; returns nullopt when the tag does not match (wrong
// key, wrong ids, or corruption).
std::optional<SymmetricKey> decrypt_key(const SymmetricKey& kek,
                                        const EncryptedKey& enc,
                                        std::uint32_t msg_id,
                                        std::uint64_t enc_id);

// Deterministic key generator: derives an endless sequence of fresh keys
// from a master secret via HMAC-SHA256, so a simulation run is reproducible.
//
// The master key is fixed for the generator's lifetime, so the HMAC
// ipad/opad blocks are compressed once here and every next() resumes from
// the cached mid-states — 2 compressions per key instead of 4, with output
// identical to hmac_sha256(master, counter).
class KeyGenerator {
 public:
  explicit KeyGenerator(std::uint64_t master_seed);

  SymmetricKey next();

  // The draw stream is a pure function of (master seed, counter): key_at
  // computes the key of an arbitrary counter value without touching the
  // generator's own position. It is const and uses only the cached
  // mid-states, so concurrent key_at calls from worker threads are safe —
  // the sharded marking phase assigns every draw its counter index up front
  // and materializes the keys in parallel, bit-identical to a serial
  // next() sequence.
  SymmetricKey key_at(std::uint64_t counter) const;
  // Batched key_at: out[i] == key_at(counters[i]), on the same lane
  // kernels as encrypt_keys. Requires out.size() == counters.size().
  void keys_at(std::span<const std::uint64_t> counters,
               std::span<SymmetricKey> out) const;

  // Stream position: the counter the next next() will consume. Snapshots
  // persist it so a restored server continues the exact draw sequence an
  // uninterrupted run would have produced.
  std::uint64_t counter() const { return counter_; }
  void set_counter(std::uint64_t counter) { counter_ = counter; }
  // Consume n draws without computing them (deferred materialization).
  void skip(std::uint64_t n) { counter_ += n; }

 private:
  std::array<std::uint8_t, 32> master_{};
  Sha256::State inner_mid_{};  // state after absorbing master ^ ipad
  Sha256::State outer_mid_{};  // state after absorbing master ^ opad
  std::uint64_t counter_ = 0;
};

// Authenticator over an entire rekey message; stands in for the paper's
// digital signature (DESIGN.md §4, substitution 4).
Sha256::Digest message_authenticator(const SymmetricKey& auth_key,
                                     std::span<const std::uint8_t> message);

}  // namespace rekey::crypto
