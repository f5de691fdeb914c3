// Scoped EPI_MPILITE_BACKEND override for tests that pin the mpilite
// transport (thread or shm) regardless of the environment they run in.
#pragma once

#include <cstdlib>
#include <string>

namespace epi {

/// Pins EPI_MPILITE_BACKEND to `value` for one scope (nullptr = unset),
/// restoring the previous state on destruction.
class BackendGuard {
 public:
  explicit BackendGuard(const char* value) {
    const char* current = std::getenv("EPI_MPILITE_BACKEND");
    if (current != nullptr) saved_ = current;
    had_value_ = current != nullptr;
    if (value != nullptr) {
      setenv("EPI_MPILITE_BACKEND", value, 1);
    } else {
      unsetenv("EPI_MPILITE_BACKEND");
    }
  }
  ~BackendGuard() {
    if (had_value_) {
      setenv("EPI_MPILITE_BACKEND", saved_.c_str(), 1);
    } else {
      unsetenv("EPI_MPILITE_BACKEND");
    }
  }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;

 private:
  std::string saved_;
  bool had_value_ = false;
};

}  // namespace epi
