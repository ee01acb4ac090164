// Stable gtest names for parameter structs that contain padding.
//
// gtest prints a TestWithParam parameter that has no PrintTo as its raw
// bytes, and gtest_discover_tests builds the ctest name from that text.
// Padding bytes hold whatever the copy left behind (often part of a stack
// or heap address), so those names changed between builds and even
// between discoveries of one binary. print_zero_padded prints the same
// "N-byte object <..>" text gtest would, for a copy of the value whose
// padding is zero. List every data member of T.
#pragma once

#include <gtest/gtest.h>

#include <cstring>
#include <ostream>
#include <type_traits>

namespace saf::test {

template <class T, class... Members>
void print_zero_padded(const T& value, std::ostream* os,
                       Members T::*... members) {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert((sizeof(Members) + ...) < sizeof(T),
                "T has no padding; the default printer is already stable");
  const auto* base = reinterpret_cast<const unsigned char*>(&value);
  unsigned char bytes[sizeof(T)] = {};
  auto copy_member = [&](const auto& member) {
    const auto* at = reinterpret_cast<const unsigned char*>(&member);
    std::memcpy(bytes + (at - base), at, sizeof(member));
  };
  (copy_member(value.*members), ...);
  ::testing::internal::PrintBytesInObjectTo(bytes, sizeof(T), os);
}

}  // namespace saf::test
