#include "crypto/chacha20.h"

namespace rekey::crypto {

namespace {

std::uint32_t rotl(std::uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

void quarter_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                   std::uint32_t& d) {
  a += b; d ^= a; d = rotl(d, 16);
  c += d; b ^= c; b = rotl(b, 12);
  a += b; d ^= a; d = rotl(d, 8);
  c += d; b ^= c; b = rotl(b, 7);
}

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

ChaCha20::ChaCha20(std::span<const std::uint8_t, kKeySize> key,
                   std::span<const std::uint8_t, kNonceSize> nonce,
                   std::uint32_t initial_counter)
    : counter_(initial_counter) {
  state_[0] = 0x61707865;
  state_[1] = 0x3320646e;
  state_[2] = 0x79622d32;
  state_[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) state_[4 + i] = load_le32(key.data() + 4 * i);
  state_[12] = 0;  // counter slot, filled per block
  for (int i = 0; i < 3; ++i) state_[13 + i] = load_le32(nonce.data() + 4 * i);
}

std::array<std::uint32_t, 16> ChaCha20::block(
    const std::array<std::uint32_t, 16>& input) {
  std::array<std::uint32_t, 16> w = input;
  for (int round = 0; round < 10; ++round) {
    quarter_round(w[0], w[4], w[8], w[12]);
    quarter_round(w[1], w[5], w[9], w[13]);
    quarter_round(w[2], w[6], w[10], w[14]);
    quarter_round(w[3], w[7], w[11], w[15]);
    quarter_round(w[0], w[5], w[10], w[15]);
    quarter_round(w[1], w[6], w[11], w[12]);
    quarter_round(w[2], w[7], w[8], w[13]);
    quarter_round(w[3], w[4], w[9], w[14]);
  }
  for (int i = 0; i < 16; ++i) w[i] += input[i];
  return w;
}

std::array<std::uint8_t, 64> ChaCha20::keystream_block(
    std::uint32_t counter) const {
  std::array<std::uint32_t, 16> x = state_;
  x[12] = counter;
  const std::array<std::uint32_t, 16> w = block(x);
  std::array<std::uint8_t, 64> out;
  for (int i = 0; i < 16; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(w[i]);
    out[4 * i + 1] = static_cast<std::uint8_t>(w[i] >> 8);
    out[4 * i + 2] = static_cast<std::uint8_t>(w[i] >> 16);
    out[4 * i + 3] = static_cast<std::uint8_t>(w[i] >> 24);
  }
  return out;
}

void ChaCha20::apply(std::span<std::uint8_t> data) {
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (pending_used_ == 64) {
      pending_ = keystream_block(counter_++);
      pending_used_ = 0;
    }
    data[i] ^= pending_[pending_used_++];
  }
}

}  // namespace rekey::crypto
