// Pin hashes for the simulation-substrate tests: fnv1a64 over the raw
// bytes of a word or double array, in host byte order. Every pin these
// tests compare against was recorded on x86-64.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <type_traits>

#include "src/serve/bundle.hpp"

namespace fcrit::pins {

template <typename T>
std::uint64_t hash_bytes(std::span<const T> items) {
  static_assert(std::is_trivially_copyable_v<T>);
  return serve::fnv1a64(std::string_view(
      reinterpret_cast<const char*>(items.data()), items.size_bytes()));
}

}  // namespace fcrit::pins
