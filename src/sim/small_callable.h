// Small-buffer type-erased `void()` callable for the event queue hot path.
// Closures up to kInlineSize bytes live inside the object (and therefore
// inside the event arena node — no allocation per event); larger ones fall
// back to a single heap allocation, like std::function but with a buffer
// sized for the scanner/fabric closures instead of the library default.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace ofh::sim {

class SmallCallable {
 public:
  // Sized to hold the largest hot-path closure inline: the fabric's packet
  // delivery (this + delay + a 56-byte net::Packet = 72 bytes). With the
  // max_align_t alignment and the ops pointer the object is 80 bytes, the
  // same as with a 64-byte buffer, so arena nodes do not grow.
  static constexpr std::size_t kInlineSize = 72;

  // True when a closure of type F lives inside the object; false means
  // every construction allocates. Hot paths static_assert on it.
  template <typename F>
  static constexpr bool stores_inline =
      sizeof(std::decay_t<F>) <= kInlineSize &&
      alignof(std::decay_t<F>) <= alignof(std::max_align_t);

  SmallCallable() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallCallable> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  // NOLINTNEXTLINE(google-explicit-constructor): drop-in for std::function.
  SmallCallable(F&& fn) {
    using Fn = std::decay_t<F>;
    if constexpr (stores_inline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = &inline_ops<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = &heap_ops<Fn>;
    }
  }

  SmallCallable(SmallCallable&& other) noexcept { move_from(other); }

  SmallCallable& operator=(SmallCallable&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  SmallCallable(const SmallCallable&) = delete;
  SmallCallable& operator=(const SmallCallable&) = delete;

  ~SmallCallable() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() { ops_->invoke(storage_); }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Move-constructs `to` from `from` and destroys `from`.
    void (*relocate)(void* from, void* to);
    void (*destroy)(void* storage);
  };

  template <typename Fn>
  static constexpr Ops inline_ops = {
      [](void* storage) { (*static_cast<Fn*>(storage))(); },
      [](void* from, void* to) {
        ::new (to) Fn(std::move(*static_cast<Fn*>(from)));
        static_cast<Fn*>(from)->~Fn();
      },
      [](void* storage) { static_cast<Fn*>(storage)->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops heap_ops = {
      [](void* storage) { (**static_cast<Fn**>(storage))(); },
      [](void* from, void* to) {
        ::new (to) Fn*(*static_cast<Fn**>(from));
      },
      [](void* storage) { delete *static_cast<Fn**>(storage); },
  };

  void move_from(SmallCallable& other) noexcept {
    if (other.ops_ != nullptr) {
      ops_ = other.ops_;
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace ofh::sim
