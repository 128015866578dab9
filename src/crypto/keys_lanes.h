// Multi-lane bodies of the batched key crypto (crypto/keys_simd.h).
//
// Included only by the per-ISA translation units (keys_avx2.cpp,
// keys_avx512.cpp). Each defines REKEY_KEY_LANES and is compiled with its
// own -m flags, so the portable GCC vector code below becomes 8-lane ymm
// or 16-lane zmm code (vprord, vpternlogd and vpshufb on AVX-512). All of
// it has internal linkage: the two instantiations never meet at link time.
//
// Word layouts (big-endian SHA-256 message words W0..W15):
//   kdf block    "kdf" || kek || 0x80 .. || len 152 bits
//   ipad/opad    kek ^ 0x36.. / kek ^ 0x5c.., zero-padded key block
//   tag inner    msg_id || enc_id || ciphertext || 0x80 .. || len 736 bits
//   tag outer    inner digest || 0x80 .. || len 768 bits
//   draw inner   counter || 0x80 .. || len 576 bits (after the ipad block)
// The ChaCha20 key is the kdf digest read as little-endian words, the
// nonce msg_id || enc_id big-endian bytes, the block counter 0.
#pragma once

#include <cstdint>
#include <cstring>

#include "crypto/keys.h"

#ifndef REKEY_KEY_LANES
#error "define REKEY_KEY_LANES before including crypto/keys_lanes.h"
#endif

namespace rekey::crypto {
namespace {

constexpr std::size_t kLanes = REKEY_KEY_LANES;
typedef std::uint32_t Vec __attribute__((vector_size(4 * REKEY_KEY_LANES)));
typedef std::uint8_t ByteVec
    __attribute__((vector_size(4 * REKEY_KEY_LANES)));

inline Vec splat(std::uint32_t x) { return Vec{} + x; }

template <int N>
inline Vec ror(Vec x) {
  return (x >> N) | (x << (32 - N));
}

template <int N>
inline Vec rol(Vec x) {
  return (x << N) | (x >> (32 - N));
}

inline Vec bswap(Vec x) {
  ByteVec mask;
  for (std::size_t i = 0; i < sizeof(Vec); ++i)
    mask[i] = static_cast<std::uint8_t>((i & ~std::size_t{3}) | (3 - (i & 3)));
  return reinterpret_cast<Vec>(
      __builtin_shuffle(reinterpret_cast<ByteVec>(x), mask));
}

inline Vec load(const std::uint32_t* p) {
  Vec v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void store(std::uint32_t* p, Vec v) { std::memcpy(p, &v, sizeof(v)); }

// One SHA-256 compression per lane. Block words that are lane-invariant
// constants (the padding) fold away once the caller inlines this.
inline void sha256_compress(Vec st[8], const Vec block[16]) {
  Vec w[16];
  for (int i = 0; i < 16; ++i) w[i] = block[i];
  Vec a = st[0], b = st[1], c = st[2], d = st[3];
  Vec e = st[4], f = st[5], g = st[6], h = st[7];
#pragma GCC unroll 64
  for (int i = 0; i < 64; ++i) {
    if (i >= 16) {
      const Vec w15 = w[(i + 1) & 15];
      const Vec w2 = w[(i + 14) & 15];
      w[i & 15] += (ror<7>(w15) ^ ror<18>(w15) ^ (w15 >> 3)) +
                   w[(i + 9) & 15] +
                   (ror<17>(w2) ^ ror<19>(w2) ^ (w2 >> 10));
    }
    const Vec t1 = h + (ror<6>(e) ^ ror<11>(e) ^ ror<25>(e)) +
                   (g ^ (e & (f ^ g))) + Sha256::kRoundConstants[i] +
                   w[i & 15];
    const Vec t2 =
        (ror<2>(a) ^ ror<13>(a) ^ ror<22>(a)) + ((a & (b | c)) | (b & c));
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  st[0] += a;
  st[1] += b;
  st[2] += c;
  st[3] += d;
  st[4] += e;
  st[5] += f;
  st[6] += g;
  st[7] += h;
}

inline void init_state(Vec st[8], const Sha256::State& from) {
  for (int i = 0; i < 8; ++i) st[i] = splat(from[i]);
}

inline void quarter_round(Vec& a, Vec& b, Vec& c, Vec& d) {
  a += b;
  d = rol<16>(d ^ a);
  c += d;
  b = rol<12>(b ^ c);
  a += b;
  d = rol<8>(d ^ a);
  c += d;
  b = rol<7>(b ^ c);
}

// Keystream words 0..3 of ChaCha20 block 0 (the only bytes a 16-byte key
// consumes).
inline void chacha20_first16(const Vec in[16], Vec out[4]) {
  Vec x[16];
  for (int i = 0; i < 16; ++i) x[i] = in[i];
#pragma GCC unroll 10
  for (int round = 0; round < 10; ++round) {
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 4; ++i) out[i] = x[i] + in[i];
}

// HMAC key block of a 16-byte key: kek ^ pad, then pad words.
inline void pad_block(const Vec kek_be[4], std::uint32_t pad, Vec block[16]) {
  for (int i = 0; i < 4; ++i) block[i] = kek_be[i] ^ pad;
  for (int i = 4; i < 16; ++i) block[i] = splat(pad);
}

void encrypt_lanes(const WrapJob* jobs, std::size_t n, std::uint32_t msg_id,
                   EncryptedKey* out) {
  // Transpose the inputs into word-major arrays; lanes past n repeat the
  // last job.
  alignas(64) std::uint32_t kek_w[4][kLanes];
  alignas(64) std::uint32_t plain_w[4][kLanes];
  alignas(64) std::uint32_t id_hi[kLanes];
  alignas(64) std::uint32_t id_lo[kLanes];
  for (std::size_t l = 0; l < kLanes; ++l) {
    const WrapJob& job = jobs[l < n ? l : n - 1];
    for (int i = 0; i < 4; ++i) {
      std::uint32_t k;
      std::memcpy(&k, job.kek->bytes.data() + 4 * i, 4);
      kek_w[i][l] = __builtin_bswap32(k);
      std::memcpy(&plain_w[i][l], job.plain->bytes.data() + 4 * i, 4);
    }
    id_hi[l] = static_cast<std::uint32_t>(job.enc_id >> 32);
    id_lo[l] = static_cast<std::uint32_t>(job.enc_id);
  }
  Vec kek[4];
  for (int i = 0; i < 4; ++i) kek[i] = load(kek_w[i]);
  const Vec hi = load(id_hi);
  const Vec lo = load(id_lo);
  Vec block[16];

  // ChaCha20 key = SHA256("kdf" || kek).
  Vec kdf[8];
  init_state(kdf, Sha256::kInitialState);
  block[0] = splat(0x6b646600u) | (kek[0] >> 24);
  block[1] = (kek[0] << 8) | (kek[1] >> 24);
  block[2] = (kek[1] << 8) | (kek[2] >> 24);
  block[3] = (kek[2] << 8) | (kek[3] >> 24);
  block[4] = (kek[3] << 8) | 0x80u;
  for (int i = 5; i < 15; ++i) block[i] = splat(0);
  block[15] = splat(19 * 8);
  sha256_compress(kdf, block);

  // Ciphertext = plain ^ keystream, as little-endian words.
  Vec cha[16] = {splat(0x61707865), splat(0x3320646e), splat(0x79622d32),
                 splat(0x6b206574)};
  for (int i = 0; i < 8; ++i) cha[4 + i] = bswap(kdf[i]);
  cha[12] = splat(0);
  cha[13] = splat(__builtin_bswap32(msg_id));
  cha[14] = bswap(hi);
  cha[15] = bswap(lo);
  Vec ct[4];
  chacha20_first16(cha, ct);
  for (int i = 0; i < 4; ++i) ct[i] ^= load(plain_w[i]);

  // Tag = HMAC-SHA256(kek, msg_id || enc_id || ciphertext), first 2 bytes.
  Vec inner[8];
  init_state(inner, Sha256::kInitialState);
  pad_block(kek, 0x36363636u, block);
  sha256_compress(inner, block);
  block[0] = splat(msg_id);
  block[1] = hi;
  block[2] = lo;
  for (int i = 0; i < 4; ++i) block[3 + i] = bswap(ct[i]);
  block[7] = splat(0x80000000u);
  for (int i = 8; i < 15; ++i) block[i] = splat(0);
  block[15] = splat((64 + 28) * 8);
  sha256_compress(inner, block);

  Vec outer[8];
  init_state(outer, Sha256::kInitialState);
  pad_block(kek, 0x5c5c5c5cu, block);
  sha256_compress(outer, block);
  for (int i = 0; i < 8; ++i) block[i] = inner[i];
  block[8] = splat(0x80000000u);
  for (int i = 9; i < 15; ++i) block[i] = splat(0);
  block[15] = splat((64 + 32) * 8);
  sha256_compress(outer, block);

  alignas(64) std::uint32_t ct_w[4][kLanes];
  alignas(64) std::uint32_t tag_w[kLanes];
  for (int i = 0; i < 4; ++i) store(ct_w[i], ct[i]);
  store(tag_w, outer[0] >> 16);
  for (std::size_t l = 0; l < n; ++l) {
    for (int i = 0; i < 4; ++i)
      std::memcpy(out[l].ciphertext.data() + 4 * i, &ct_w[i][l], 4);
    out[l].tag = static_cast<std::uint16_t>(tag_w[l]);
  }
}

void key_lanes(const Sha256::State& inner_mid, const Sha256::State& outer_mid,
               const std::uint64_t* counters, std::size_t n,
               SymmetricKey* out) {
  alignas(64) std::uint32_t ctr_hi[kLanes];
  alignas(64) std::uint32_t ctr_lo[kLanes];
  for (std::size_t l = 0; l < kLanes; ++l) {
    const std::uint64_t c = counters[l < n ? l : n - 1];
    ctr_hi[l] = static_cast<std::uint32_t>(c >> 32);
    ctr_lo[l] = static_cast<std::uint32_t>(c);
  }
  Vec block[16];
  Vec inner[8];
  init_state(inner, inner_mid);
  block[0] = load(ctr_hi);
  block[1] = load(ctr_lo);
  block[2] = splat(0x80000000u);
  for (int i = 3; i < 15; ++i) block[i] = splat(0);
  block[15] = splat((64 + 8) * 8);
  sha256_compress(inner, block);

  Vec outer[8];
  init_state(outer, outer_mid);
  for (int i = 0; i < 8; ++i) block[i] = inner[i];
  block[8] = splat(0x80000000u);
  for (int i = 9; i < 15; ++i) block[i] = splat(0);
  block[15] = splat((64 + 32) * 8);
  sha256_compress(outer, block);

  // The key is the first 16 digest bytes: state words 0..3, big-endian.
  alignas(64) std::uint32_t key_w[4][kLanes];
  for (int i = 0; i < 4; ++i) store(key_w[i], bswap(outer[i]));
  for (std::size_t l = 0; l < n; ++l)
    for (int i = 0; i < 4; ++i)
      std::memcpy(out[l].bytes.data() + 4 * i, &key_w[i][l], 4);
}

}  // namespace
}  // namespace rekey::crypto
