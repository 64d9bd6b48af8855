// Shared test scaffolding.
#ifndef NV_TESTS_TEST_HELPERS_H
#define NV_TESTS_TEST_HELPERS_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>

#include "core/nvariant_system.h"
#include "guest/guest_program.h"
#include "variants/registry.h"
#include "vkernel/sockets.h"

namespace nv::testing {

/// Guest program defined inline from a lambda. The lambda runs once per
/// variant, interleaved at syscalls — keep all state in locals or simulated
/// memory.
class LambdaGuest final : public guest::GuestProgram {
 public:
  using Fn = std::function<void(guest::GuestContext&)>;
  explicit LambdaGuest(Fn fn) : fn_(std::move(fn)) {}
  void run(guest::GuestContext& ctx) override { fn_(ctx); }
  [[nodiscard]] std::string_view name() const override { return "lambda-guest"; }

 private:
  Fn fn_;
};

/// Builder shorthand for tests: N variants, variations named from the
/// builtin registry, extra unshared paths.
inline std::unique_ptr<core::NVariantSystem> build_system(
    unsigned n_variants = 2, std::initializer_list<std::string_view> variation_names = {},
    std::initializer_list<std::string> unshared = {}) {
  core::NVariantSystem::Builder builder;
  builder.n_variants(n_variants);
  for (const auto name : variation_names) {
    builder.variation(variants::make_builtin(name));
  }
  for (const auto& path : unshared) builder.unshared(path);
  return builder.build();
}

/// Block until a server guest binds `port` (SocketHub::wait_bound: woken by
/// the bind itself, so no polling). The timeout only bounds a FAILING test.
[[nodiscard]] inline bool wait_for_bind(vkernel::SocketHub& hub, std::uint16_t port,
                                        std::chrono::seconds timeout = std::chrono::seconds(30)) {
  return hub.wait_bound(port, std::chrono::steady_clock::now() + timeout);
}

}  // namespace nv::testing

#endif  // NV_TESTS_TEST_HELPERS_H
