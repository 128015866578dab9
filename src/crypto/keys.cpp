#include "crypto/keys.h"

#include <algorithm>
#include <cstring>

#include "common/ensure.h"
#include "common/env.h"
#include "crypto/hmac.h"
#include "crypto/keys_simd.h"

#if defined(REKEY_KEYS_X86)
#include <cpuid.h>
#endif

namespace rekey::crypto {

namespace {

void put_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

void put_be64(std::uint8_t* p, std::uint64_t v) {
  put_be32(p, static_cast<std::uint32_t>(v >> 32));
  put_be32(p + 4, static_cast<std::uint32_t>(v));
}

// Big-endian bit length in the last two bytes of a final SHA-256 block
// (every message here is shorter than 8 KiB).
void put_bit_length(std::uint8_t* block, std::uint32_t bytes) {
  block[62] = static_cast<std::uint8_t>(bytes * 8 >> 8);
  block[63] = static_cast<std::uint8_t>(bytes * 8);
}

// The one-edge path: the same fixed, pre-padded blocks the lane kernels
// build (crypto/keys_lanes.h), hashed through Sha256::compress so they
// ride SHA-NI where the CPU has it.

// First 16 ChaCha20 keystream bytes for (kek, msg_id, enc_id): the cipher
// key is SHA256("kdf" || kek), the nonce msg_id || enc_id big-endian.
std::array<std::uint32_t, 4> keystream16(const SymmetricKey& kek,
                                         std::uint32_t msg_id,
                                         std::uint64_t enc_id) {
  std::uint8_t block[64] = {'k', 'd', 'f'};
  std::memcpy(block + 3, kek.bytes.data(), kek.bytes.size());
  block[19] = 0x80;
  put_bit_length(block, 19);
  Sha256::State kdf = Sha256::kInitialState;
  Sha256::compress(kdf, block, 1);

  std::array<std::uint32_t, 16> in = {0x61707865, 0x3320646e, 0x79622d32,
                                      0x6b206574};
  for (int i = 0; i < 8; ++i) in[4 + i] = __builtin_bswap32(kdf[i]);
  in[12] = 0;
  in[13] = __builtin_bswap32(msg_id);
  in[14] = __builtin_bswap32(static_cast<std::uint32_t>(enc_id >> 32));
  in[15] = __builtin_bswap32(static_cast<std::uint32_t>(enc_id));
  const auto out = ChaCha20::block(in);
  return {out[0], out[1], out[2], out[3]};
}

// First 2 bytes of HMAC-SHA256(kek, msg_id || enc_id || ciphertext): the
// key block and the message block hashed as two consecutive blocks, then
// the same for the outer hash.
std::uint16_t compute_tag(const SymmetricKey& kek,
                          std::span<const std::uint8_t> ciphertext,
                          std::uint32_t msg_id, std::uint64_t enc_id) {
  std::uint8_t blocks[128];
  std::memset(blocks, 0x36, 64);
  for (std::size_t i = 0; i < kek.bytes.size(); ++i) blocks[i] ^= kek.bytes[i];
  std::uint8_t* msg = blocks + 64;
  std::memset(msg, 0, 64);
  put_be32(msg, msg_id);
  put_be64(msg + 4, enc_id);
  std::memcpy(msg + 12, ciphertext.data(), SymmetricKey::kSize);
  msg[28] = 0x80;
  put_bit_length(msg, 64 + 28);
  Sha256::State inner = Sha256::kInitialState;
  Sha256::compress(inner, blocks, 2);

  std::memset(blocks, 0x5c, 64);
  for (std::size_t i = 0; i < kek.bytes.size(); ++i) blocks[i] ^= kek.bytes[i];
  std::memset(msg, 0, 64);
  for (int i = 0; i < 8; ++i) put_be32(msg + 4 * i, inner[i]);
  msg[32] = 0x80;
  put_bit_length(msg, 64 + 32);
  Sha256::State outer = Sha256::kInitialState;
  Sha256::compress(outer, blocks, 2);
  return static_cast<std::uint16_t>(outer[0] >> 16);
}

// XOR of 16 key bytes with the 4 little-endian keystream words.
std::array<std::uint8_t, SymmetricKey::kSize> xor_keystream(
    const std::array<std::uint8_t, SymmetricKey::kSize>& in,
    const std::array<std::uint32_t, 4>& ks) {
  std::array<std::uint8_t, SymmetricKey::kSize> out;
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = static_cast<std::uint8_t>(in[i] ^ (ks[i / 4] >> (8 * (i % 4))));
  return out;
}

// Batch dispatch: one kernel table per path, resolved once at first use.
using EncryptLanesFn = void (*)(const WrapJob*, std::size_t, std::uint32_t,
                                EncryptedKey*);
using KeyLanesFn = void (*)(const Sha256::State&, const Sha256::State&,
                            const std::uint64_t*, std::size_t,
                            SymmetricKey*);

struct BatchKernels {
  KeyBatchPath path;
  std::size_t lanes;
  EncryptLanesFn encrypt;  // null on the scalar path
  KeyLanesFn keys;
};

#if defined(REKEY_KEYS_X86)
std::uint64_t xgetbv0() {
  std::uint32_t eax = 0, edx = 0;
  __asm__("xgetbv" : "=a"(eax), "=d"(edx) : "c"(0));
  return static_cast<std::uint64_t>(edx) << 32 | eax;
}

// CPUID feature bits plus XGETBV: the OS must save the vector state the
// kernel uses (YMM for AVX2; YMM, opmask and ZMM for AVX-512).
bool cpu_runs(KeyBatchPath path) {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  const bool osxsave = ecx & (1u << 27);
  const bool avx = ecx & (1u << 28);
  if (!osxsave || !avx) return false;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  const std::uint64_t xcr0 = xgetbv0();
  if (path == KeyBatchPath::kAvx2)
    return (ebx & (1u << 5)) && (xcr0 & 0x6) == 0x6;
  const bool f = ebx & (1u << 16);
  const bool bw = ebx & (1u << 30);
  return f && bw && (xcr0 & 0xe6) == 0xe6;
}
#endif

BatchKernels kernels_for(KeyBatchPath path) {
  switch (path) {
#if defined(REKEY_KEYS_X86)
    case KeyBatchPath::kAvx2:
      return {path, 8, detail::encrypt_lanes_avx2, detail::key_lanes_avx2};
    case KeyBatchPath::kAvx512:
      return {path, 16, detail::encrypt_lanes_avx512,
              detail::key_lanes_avx512};
#endif
    default:
      return {KeyBatchPath::kScalar, 1, nullptr, nullptr};
  }
}

BatchKernels resolve_kernels() {
  const auto env = rekey::env::raw("REKEY_SIMD");
  if (env.has_value() && *env == "scalar")
    return kernels_for(KeyBatchPath::kScalar);
  for (const KeyBatchPath p : {KeyBatchPath::kAvx512, KeyBatchPath::kAvx2})
    if (key_batch_path_supported(p)) return kernels_for(p);
  return kernels_for(KeyBatchPath::kScalar);
}

BatchKernels& active_kernels() {
  static BatchKernels k = resolve_kernels();
  return k;
}

// A partly filled kernel call costs as much as a full one; below this many
// edges the one-edge path is cheaper.
std::size_t min_lanes(const BatchKernels& k) { return k.lanes / 4; }

}  // namespace

const char* key_batch_path_name(KeyBatchPath path) {
  switch (path) {
    case KeyBatchPath::kScalar: return "scalar";
    case KeyBatchPath::kAvx2: return "avx2";
    case KeyBatchPath::kAvx512: return "avx512";
  }
  return "?";
}

bool key_batch_path_supported(KeyBatchPath path) {
  if (path == KeyBatchPath::kScalar) return true;
#if defined(REKEY_KEYS_X86)
  return cpu_runs(path);
#else
  return false;
#endif
}

std::vector<KeyBatchPath> supported_key_batch_paths() {
  std::vector<KeyBatchPath> out;
  for (const KeyBatchPath p :
       {KeyBatchPath::kScalar, KeyBatchPath::kAvx2, KeyBatchPath::kAvx512})
    if (key_batch_path_supported(p)) out.push_back(p);
  return out;
}

KeyBatchPath active_key_batch_path() { return active_kernels().path; }

KeyBatchPath force_key_batch_path(KeyBatchPath path) {
  REKEY_ENSURE_MSG(key_batch_path_supported(path),
                   "requested key batch path not supported on this "
                   "build/CPU");
  BatchKernels& k = active_kernels();
  const KeyBatchPath prev = k.path;
  k = kernels_for(path);
  return prev;
}

EncryptedKey encrypt_key(const SymmetricKey& kek, const SymmetricKey& plain,
                         std::uint32_t msg_id, std::uint64_t enc_id) {
  EncryptedKey out;
  out.ciphertext =
      xor_keystream(plain.bytes, keystream16(kek, msg_id, enc_id));
  out.tag = compute_tag(kek, out.ciphertext, msg_id, enc_id);
  return out;
}

void encrypt_keys(std::span<const WrapJob> jobs, std::uint32_t msg_id,
                  std::span<EncryptedKey> out) {
  REKEY_ENSURE(out.size() == jobs.size());
  const BatchKernels& k = active_kernels();
  const std::size_t n = jobs.size();
  std::size_t i = 0;
  if (k.encrypt != nullptr) {
    while (i < n && n - i >= min_lanes(k)) {
      const std::size_t take = std::min(k.lanes, n - i);
      k.encrypt(jobs.data() + i, take, msg_id, out.data() + i);
      i += take;
    }
  }
  for (; i < n; ++i)
    out[i] = encrypt_key(*jobs[i].kek, *jobs[i].plain, msg_id,
                         jobs[i].enc_id);
}

std::optional<SymmetricKey> decrypt_key(const SymmetricKey& kek,
                                        const EncryptedKey& enc,
                                        std::uint32_t msg_id,
                                        std::uint64_t enc_id) {
  if (compute_tag(kek, enc.ciphertext, msg_id, enc_id) != enc.tag)
    return std::nullopt;
  SymmetricKey plain;
  plain.bytes =
      xor_keystream(enc.ciphertext, keystream16(kek, msg_id, enc_id));
  return plain;
}

KeyGenerator::KeyGenerator(std::uint64_t master_seed) {
  std::array<std::uint8_t, 8> seed_bytes;
  for (int i = 0; i < 8; ++i)
    seed_bytes[i] = static_cast<std::uint8_t>(master_seed >> (56 - 8 * i));
  master_ = Sha256::hash(seed_bytes);

  // Precompute the HMAC pad mid-states (master_ is 32 bytes, so the key
  // block is master_ zero-padded to 64 — same as hmac_sha256 builds it).
  std::array<std::uint8_t, 64> ipad{};
  std::array<std::uint8_t, 64> opad{};
  for (std::size_t i = 0; i < master_.size(); ++i) {
    ipad[i] = static_cast<std::uint8_t>(master_[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(master_[i] ^ 0x5c);
  }
  for (std::size_t i = master_.size(); i < 64; ++i) {
    ipad[i] = 0x36;
    opad[i] = 0x5c;
  }
  inner_mid_ = Sha256::kInitialState;
  outer_mid_ = Sha256::kInitialState;
  Sha256::compress(inner_mid_, ipad.data(), 1);
  Sha256::compress(outer_mid_, opad.data(), 1);
}

SymmetricKey KeyGenerator::next() { return key_at(counter_++); }

SymmetricKey KeyGenerator::key_at(std::uint64_t counter) const {
  std::uint8_t block[64] = {};
  put_be64(block, counter);
  block[8] = 0x80;
  put_bit_length(block, 64 + 8);
  Sha256::State inner = inner_mid_;
  Sha256::compress(inner, block, 1);
  std::memset(block, 0, sizeof(block));
  for (int i = 0; i < 8; ++i) put_be32(block + 4 * i, inner[i]);
  block[32] = 0x80;
  put_bit_length(block, 64 + 32);
  Sha256::State outer = outer_mid_;
  Sha256::compress(outer, block, 1);
  SymmetricKey k;
  for (int i = 0; i < 4; ++i) put_be32(k.bytes.data() + 4 * i, outer[i]);
  return k;
}

void KeyGenerator::keys_at(std::span<const std::uint64_t> counters,
                           std::span<SymmetricKey> out) const {
  REKEY_ENSURE(out.size() == counters.size());
  const BatchKernels& k = active_kernels();
  const std::size_t n = counters.size();
  std::size_t i = 0;
  if (k.keys != nullptr) {
    while (i < n && n - i >= min_lanes(k)) {
      const std::size_t take = std::min(k.lanes, n - i);
      k.keys(inner_mid_, outer_mid_, counters.data() + i, take,
             out.data() + i);
      i += take;
    }
  }
  for (; i < n; ++i) out[i] = key_at(counters[i]);
}

Sha256::Digest message_authenticator(const SymmetricKey& auth_key,
                                     std::span<const std::uint8_t> message) {
  return hmac_sha256(auth_key.bytes, message);
}

}  // namespace rekey::crypto
