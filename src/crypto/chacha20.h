// ChaCha20 stream cipher (RFC 8439), implemented from scratch.
//
// The rekey protocol is cipher-agnostic: every encryption {k'}_k is a
// 16-byte key encrypted under another 16-byte key. We use ChaCha20 with a
// per-encryption deterministic nonce so that ciphertexts carry no explicit
// IV (see crypto/keys.h for the nonce discipline).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace rekey::crypto {

class ChaCha20 {
 public:
  static constexpr std::size_t kKeySize = 32;
  static constexpr std::size_t kNonceSize = 12;

  ChaCha20(std::span<const std::uint8_t, kKeySize> key,
           std::span<const std::uint8_t, kNonceSize> nonce,
           std::uint32_t initial_counter = 0);

  // XOR the keystream into `data` in place (encryption == decryption).
  void apply(std::span<std::uint8_t> data);

  // One 64-byte keystream block (exposed for tests against RFC vectors).
  std::array<std::uint8_t, 64> keystream_block(std::uint32_t counter) const;

  // The block function on a raw 16-word input state (constants, key,
  // counter, nonce): 20 rounds plus the feed-forward, output as the 16
  // little-endian keystream words (RFC 8439 §2.3).
  static std::array<std::uint32_t, 16> block(
      const std::array<std::uint32_t, 16>& input);

 private:
  std::array<std::uint32_t, 16> state_;
  std::uint32_t counter_;
  std::array<std::uint8_t, 64> pending_{};
  std::size_t pending_used_ = 64;  // 64 == empty
};

}  // namespace rekey::crypto
