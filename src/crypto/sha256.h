// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used by the key server for key derivation and (via HMAC) for packet
// integrity tags and the rekey-message authenticator that stands in for the
// paper's digital signature (see DESIGN.md §4).
//
// The compression function is runtime-dispatched like the FEC kernels
// (fec/gf256_simd.h): a SHA-NI path when the build and CPU support it,
// the portable scalar rounds otherwise, REKEY_SIMD=scalar forcing the
// latter. Both paths are exact FIPS 180-4 and produce identical digests;
// key derivation is the marking algorithm's dominant cost (one HMAC per
// fresh key), so this is a key-server hot path, not just a checksum.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace rekey::crypto {

class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  using Digest = std::array<std::uint8_t, kDigestSize>;
  // Internal chaining state after some number of whole 64-byte blocks.
  using State = std::array<std::uint32_t, 8>;
  // FIPS 180-4 §5.3.3 initial hash value (the state before any block).
  static constexpr State kInitialState = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                          0xa54ff53a, 0x510e527f, 0x9b05688c,
                                          0x1f83d9ab, 0x5be0cd19};
  // FIPS 180-4 §4.2.2 round constants.
  static constexpr std::array<std::uint32_t, 64> kRoundConstants = {
      0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
      0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
      0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
      0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
      0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
      0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
      0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
      0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
      0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
      0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
      0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

  Sha256();
  // Resume from a precomputed mid-state with `blocks_done` whole blocks
  // already absorbed (HMAC ipad/opad caching — see KeyGenerator).
  Sha256(const State& state, std::uint64_t blocks_done);

  void update(std::span<const std::uint8_t> data);
  Digest finish();  // may be called once; resets are not supported

  static Digest hash(std::span<const std::uint8_t> data);

  // Compress `nblocks` consecutive 64-byte blocks into `state` via the
  // active path. Exposed for mid-state precomputation.
  static void compress(State& state, const std::uint8_t* blocks,
                       std::size_t nblocks);

  // "sha_ni" or "scalar" — whichever compress() dispatches to.
  static const char* compress_path_name();

 private:
  State state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
  bool finished_ = false;
};

}  // namespace rekey::crypto
