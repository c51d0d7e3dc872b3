// Counters records, each declared once.
//
// A counters record is a plain struct of std::uint64_t fields plus one
// `static constexpr fields()` table that names every field, in the order
// the counters frame carries them. Everything else walks that table
// instead of naming fields: the live holder below, the counters-frame
// codec and the one printer (net/wire.h). Adding a counter is one field
// plus one table entry.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace fpss::util {

/// One entry of a record's fields() table: the counter's printed name and
/// the member it names.
template <typename T>
struct CounterField {
  const char* name;
  std::uint64_t T::*member;
};

/// True when T::fields() lists every u64 member of T exactly once: no
/// member or name appears twice, and the entries account for every byte
/// of T beyond `key_bytes` (a record's non-counter key, such as a peer's
/// address).
template <typename T>
constexpr bool counters_complete(std::size_t key_bytes = 0) {
  constexpr auto table = T::fields();
  for (std::size_t a = 0; a < table.size(); ++a)
    for (std::size_t b = a + 1; b < table.size(); ++b)
      if (table[a].member == table[b].member ||
          std::string_view(table[a].name) == table[b].name)
        return false;
  return sizeof(T) == key_bytes + table.size() * sizeof(std::uint64_t);
}

/// A T whose fields are touched only through std::atomic_ref: relaxed
/// adds, stores and monotone maxima from any thread, and a field-by-field
/// read() for reports. Each field is atomic on its own; read() is not a
/// cut across fields.
template <typename T>
class LiveCounters {
  static_assert(counters_complete<T>());

 public:
  using Field = std::uint64_t T::*;

  void add(Field field, std::uint64_t n = 1) {
    ref(field).fetch_add(n, std::memory_order_relaxed);
  }
  void set(Field field, std::uint64_t value) {
    ref(field).store(value, std::memory_order_relaxed);
  }
  /// Monotone max: the field becomes max(field, value).
  void raise(Field field, std::uint64_t value) {
    const std::atomic_ref<std::uint64_t> gauge = ref(field);
    std::uint64_t seen = gauge.load(std::memory_order_relaxed);
    while (value > seen && !gauge.compare_exchange_weak(
                               seen, value, std::memory_order_relaxed)) {
    }
  }

  T read() const {
    T out;
    for (const CounterField<T>& field : T::fields())
      out.*field.member = ref(field.member).load(std::memory_order_relaxed);
    return out;
  }

 private:
  std::atomic_ref<std::uint64_t> ref(Field field) const {
    return std::atomic_ref<std::uint64_t>(values_.*field);
  }

  // Every field is a u64 (counters_complete), so aligning the record
  // aligns each field for atomic_ref.
  alignas(std::atomic_ref<std::uint64_t>::required_alignment) mutable T
      values_{};
};

}  // namespace fpss::util
