#include "crypto/sha256.h"

#include <cstring>
#include <string_view>

#include "common/ensure.h"
#include "common/env.h"

namespace rekey::crypto {

#if defined(REKEY_SHA_NI)
namespace detail {
// crypto/sha256_ni.cpp — compiled with the SHA/SSE4.1 ISA flags.
void compress_sha_ni(Sha256::State& state, const std::uint8_t* blocks,
                     std::size_t nblocks);
bool cpu_has_sha_extensions();
}  // namespace detail
#endif

namespace {

constexpr const auto& kK = Sha256::kRoundConstants;

std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

void compress_scalar(Sha256::State& state, const std::uint8_t* blocks,
                     std::size_t nblocks) {
  for (std::size_t blk = 0; blk < nblocks; ++blk) {
    const std::uint8_t* block = blocks + 64 * blk;
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = static_cast<std::uint32_t>(block[4 * i]) << 24 |
             static_cast<std::uint32_t>(block[4 * i + 1]) << 16 |
             static_cast<std::uint32_t>(block[4 * i + 2]) << 8 |
             static_cast<std::uint32_t>(block[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

using CompressFn = void (*)(Sha256::State&, const std::uint8_t*, std::size_t);

struct CompressPath {
  CompressFn fn;
  const char* name;
};

CompressPath resolve_compress_path() {
#if defined(REKEY_SHA_NI)
  // REKEY_SIMD=scalar forces the reference path (same convention as the
  // FEC kernels); any other value keeps autodetection — the ISA names it
  // takes (ssse3/avx2/neon) say nothing about the SHA extension.
  const auto env = rekey::env::raw("REKEY_SIMD");
  const bool force_scalar = env.has_value() && *env == "scalar";
  if (!force_scalar && detail::cpu_has_sha_extensions())
    return {detail::compress_sha_ni, "sha_ni"};
#endif
  return {compress_scalar, "scalar"};
}

const CompressPath& active_compress_path() {
  static const CompressPath path = resolve_compress_path();
  return path;
}

}  // namespace

void Sha256::compress(State& state, const std::uint8_t* blocks,
                      std::size_t nblocks) {
  active_compress_path().fn(state, blocks, nblocks);
}

const char* Sha256::compress_path_name() {
  return active_compress_path().name;
}

Sha256::Sha256() : state_(kInitialState) {}

Sha256::Sha256(const State& state, std::uint64_t blocks_done)
    : state_(state), total_bytes_(blocks_done * 64) {}

void Sha256::update(std::span<const std::uint8_t> data) {
  REKEY_ENSURE(!finished_);
  total_bytes_ += data.size();
  std::size_t off = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    off = take;
    if (buffered_ == buffer_.size()) {
      compress(state_, buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  if (off + 64 <= data.size()) {
    const std::size_t nblocks = (data.size() - off) / 64;
    compress(state_, data.data() + off, nblocks);
    off += nblocks * 64;
  }
  if (off < data.size()) {
    std::memcpy(buffer_.data(), data.data() + off, data.size() - off);
    buffered_ = data.size() - off;
  }
}

Sha256::Digest Sha256::finish() {
  REKEY_ENSURE(!finished_);
  finished_ = true;
  const std::uint64_t bit_len = total_bytes_ * 8;
  // Padding: 0x80, zeros, 64-bit big-endian length.
  std::uint8_t pad[72] = {0x80};
  const std::size_t rem = static_cast<std::size_t>(total_bytes_ % 64);
  const std::size_t pad_len = (rem < 56) ? (56 - rem) : (120 - rem);
  std::uint8_t len_be[8];
  for (int i = 0; i < 8; ++i)
    len_be[i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  finished_ = false;  // allow the two internal updates below
  update({pad, pad_len});
  update({len_be, 8});
  finished_ = true;

  Digest d;
  for (int i = 0; i < 8; ++i) {
    d[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    d[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    d[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    d[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return d;
}

Sha256::Digest Sha256::hash(std::span<const std::uint8_t> data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

}  // namespace rekey::crypto
