// Lane kernels for the batched key crypto behind crypto::encrypt_keys and
// KeyGenerator::keys_at.
//
// Every edge of a rekey payload costs five SHA-256 compressions (the
// ChaCha20 key derivation, then the 4-compression HMAC tag) and one
// ChaCha20 block; every key draw costs two compressions from the cached
// HMAC mid-states. The edges of a batch are independent, so the kernels
// put one edge (or draw) in each 32-bit lane of a vector register: 16
// lanes on AVX-512, 8 on AVX2. Each kernel builds its SHA-256 blocks
// already padded, word by word, and computes the single ChaCha20 block a
// 16-byte key needs; no buffered hashing and no per-byte cipher loop.
//
// The path is chosen once at first use, in the same pattern as the FEC
// kernels (fec/gf256_simd.h): each ISA body lives in its own translation
// unit compiled with just that ISA's flags, and the dispatcher checks
// CPUID and XGETBV before calling in. REKEY_SIMD=scalar forces the
// one-edge path (any other value keeps autodetection, as for SHA-NI).
// The one-edge path is also what decrypt_key, encrypt_key, key_at and
// the lane tails run: fixed pre-padded blocks through Sha256::compress,
// so it rides SHA-NI where the CPU has it. Every path is byte-identical
// to the original buffered construction; keys_simd_test enforces this.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "crypto/keys.h"

namespace rekey::crypto {

enum class KeyBatchPath { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

const char* key_batch_path_name(KeyBatchPath path);

// Compiled into this binary and executable on the running CPU.
bool key_batch_path_supported(KeyBatchPath path);
std::vector<KeyBatchPath> supported_key_batch_paths();

// The path encrypt_keys and keys_at dispatch to.
KeyBatchPath active_key_batch_path();

// Testing/bench hook: swap the active path; returns the previous one.
// Requires key_batch_path_supported(path). Not thread-safe against
// concurrent batch calls — use from single-threaded setup only.
KeyBatchPath force_key_batch_path(KeyBatchPath path);

namespace detail {

// Kernel entry points, defined in the per-ISA translation units. Each
// handles n in [1, lanes] inputs; lanes past n recompute the last input
// and are not stored.
void encrypt_lanes_avx2(const WrapJob* jobs, std::size_t n,
                        std::uint32_t msg_id, EncryptedKey* out);
void key_lanes_avx2(const Sha256::State& inner_mid,
                    const Sha256::State& outer_mid,
                    const std::uint64_t* counters, std::size_t n,
                    SymmetricKey* out);
void encrypt_lanes_avx512(const WrapJob* jobs, std::size_t n,
                          std::uint32_t msg_id, EncryptedKey* out);
void key_lanes_avx512(const Sha256::State& inner_mid,
                      const Sha256::State& outer_mid,
                      const std::uint64_t* counters, std::size_t n,
                      SymmetricKey* out);

}  // namespace detail

}  // namespace rekey::crypto
