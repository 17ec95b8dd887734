#pragma once
// Field lists: a struct whose members are walked generically (cost-cache
// signature, registry publishing, cluster rollup, request traces, test
// comparators) names each member once, in a static `fields()` beside the
// declarations.  Every walk goes through for_each_field, which fails the
// build when the list is shorter than the struct, so a new member cannot
// silently drop out.

#include <cstddef>
#include <tuple>
#include <type_traits>
#include <utility>

namespace cimtpu {

/// One list entry: a name (registry name or member name) and the member.
template <class S, class M>
struct Field {
  const char* name;
  M S::*member;
};

template <class S, class M>
constexpr Field<S, M> field(const char* name, M S::*member) {
  return {name, member};
}

namespace detail {

struct AnyField {  // converts to anything; only used unevaluated
  template <class T>
  constexpr operator T() const;
};

template <class T, class Indices, class = void>
struct BraceInitializable : std::false_type {};
template <class T, std::size_t... I>
struct BraceInitializable<
    T, std::index_sequence<I...>,
    std::void_t<decltype(T{(static_cast<void>(I), AnyField{})...})>>
    : std::true_type {};

}  // namespace detail

/// Member count of aggregate `T`: its largest brace-initialisation arity.
template <class T, std::size_t N = 0>
constexpr std::size_t field_count() {
  if constexpr (detail::BraceInitializable<
                    T, std::make_index_sequence<N + 1>>::value) {
    return field_count<T, N + 1>();
  } else {
    return N;
  }
}

/// Calls `f(entry)` for every entry of `S::fields()`, in list order.
template <class S, class F>
void for_each_field(F&& f) {
  constexpr auto fields = S::fields();
  static_assert(std::tuple_size_v<decltype(fields)> == field_count<S>(),
                "S::fields() must list every member of S");
  std::apply([&f](const auto&... entry) { (f(entry), ...); }, fields);
}

/// Adds every listed member of `from` into `into`.
template <class S>
void add_fields(S* into, const S& from) {
  for_each_field<S>([into, &from](const auto& entry) {
    into->*entry.member += from.*entry.member;
  });
}

}  // namespace cimtpu
