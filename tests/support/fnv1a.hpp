// FNV-1a over 64-bit words, the hash the golden-digest tests fold their
// corpora into. A double contributes its bit pattern, so a digest pins
// values exactly, not to a tolerance.
#pragma once

#include <bit>
#include <cstdint>
#include <string_view>

namespace esg::test {

class Fnv1a {
 public:
  void add_u64(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (v >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add_f64(double v) { add_u64(std::bit_cast<std::uint64_t>(v)); }
  /// Folds the length, then every byte of `bytes`.
  void add_bytes(std::string_view bytes) {
    add_u64(bytes.size());
    for (const char c : bytes) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001b3ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

}  // namespace esg::test
