// 16-lane AVX-512 kernels for the batched key crypto (crypto/keys_simd.h).
// Compiled with -mavx512f -mavx512bw only; the dispatcher calls in after
// CPUID/XGETBV.
#define REKEY_KEY_LANES 16
#include "crypto/keys_lanes.h"
#include "crypto/keys_simd.h"

namespace rekey::crypto::detail {

void encrypt_lanes_avx512(const WrapJob* jobs, std::size_t n,
                          std::uint32_t msg_id, EncryptedKey* out) {
  encrypt_lanes(jobs, n, msg_id, out);
}

void key_lanes_avx512(const Sha256::State& inner_mid,
                      const Sha256::State& outer_mid,
                      const std::uint64_t* counters, std::size_t n,
                      SymmetricKey* out) {
  key_lanes(inner_mid, outer_mid, counters, n, out);
}

}  // namespace rekey::crypto::detail
