// The thread-local "current instance" slot every per-thread observer uses.
//
// Profiler, MidSolveProbe, LiveSolve, ConvergenceTelemetry and
// fault::Injector are each installed on a rank thread for the duration of a
// solve, and the runtime's hook points reach them through T::current(): one
// thread-local load and a null check, no synchronization.  Deriving from
// ThreadSlot<T> provides the slot, current() and the RAII Install.
#pragma once

namespace pipescg::obs {

template <class T>
class ThreadSlot {
 public:
  static T* current() { return slot_; }

  /// RAII: installs `p` as the calling thread's current() and restores the
  /// previous one on destruction.  nullptr is a no-op install, which lets
  /// call sites install unconditionally.
  class Install {
   public:
    explicit Install(T* p) : prev_(slot_) {
      if (p != nullptr) slot_ = p;
    }
    ~Install() { slot_ = prev_; }
    Install(const Install&) = delete;
    Install& operator=(const Install&) = delete;

   private:
    T* prev_;
  };

 private:
  static inline thread_local T* slot_ = nullptr;
};

}  // namespace pipescg::obs
